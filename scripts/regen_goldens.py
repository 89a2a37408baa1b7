"""Regenerate ``tests/golden/*.json`` and classify what changed.

Replaces ad-hoc reruns of the per-fixture generator scripts: this walks every
golden fixture (currently ``schedule_equivalence.json``, via the CASES table
in ``tests/golden/generate_schedule_goldens.py``), recomputes it, and prints
a per-solver change summary before touching anything:

- ``bit-identical``      — nothing changed; the file is not rewritten.
- ``modelled-time-only`` — iterates and objectives match bit-for-bit but the
  modelled clock moved (a cost-model change, e.g. new network constants);
  safe for convergence claims, flag it in the PR.
- ``objective-only``     — only the recorded objectives moved, each by at
  most a relative 1e-12; ``final_w``, the communication structure and the
  modelled times are bit-identical.  An evaluation change (e.g. summing the
  objective in a different order), not an optimizer change.
- ``iterate drift``      — ``final_w``, the communication structure or the
  objective path changed beyond that: a *numerical* change.  Only
  regenerate when the PR intends one, and say so.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/regen_goldens.py          # summary + write
    PYTHONPATH=src python scripts/regen_goldens.py --check  # summary only,
                                                            # exit 1 on drift
    PYTHONPATH=src python scripts/regen_goldens.py --dry-run  # summary only

See docs/schedule-ir.md ("Regenerating the golden traces") for when each
class of change is acceptable.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"

#: keys whose drift means only the cost model changed
TIME_KEYS = ("modelled_times", "comm_times")
#: how far each recorded objective may move in an ``objective-only`` change
OBJECTIVE_RTOL = 1e-12


def _load_generator():
    """Import the fixture generator without needing tests/ on sys.path."""
    path = GOLDEN_DIR / "generate_schedule_goldens.py"
    spec = importlib.util.spec_from_file_location("generate_schedule_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _objectives_close(old: list, new: list) -> bool:
    return len(old) == len(new) and all(
        abs(a - b) <= OBJECTIVE_RTOL * abs(a) for a, b in zip(old, new)
    )


def classify(old: dict, new: dict) -> str:
    moved = {key for key in set(old) | set(new) if old.get(key) != new.get(key)}
    if not moved:
        return "bit-identical"
    if moved <= set(TIME_KEYS):
        return "modelled-time-only"
    if moved == {"objectives"} and _objectives_close(old["objectives"], new["objectives"]):
        return "objective-only"
    # Anything else — iterates, communication structure (a solver that runs
    # a different number of rounds is not a cost-model tweak), an unknown
    # key — is the loud case.
    return "iterate drift"


def _first_delta(old: dict, new: dict) -> str:
    for key in sorted(set(old) | set(new)):
        if old.get(key) != new.get(key):
            return key
    return ""


def regen_schedule_equivalence(*, write: bool) -> dict:
    generator = _load_generator()
    golden_path = generator.GOLDEN_PATH
    old = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    new = {name: generator.run_case(name) for name in generator.CASES}

    summary = {}
    for name in sorted(set(old) | set(new)):
        if name not in old:
            summary[name] = "new solver"
        elif name not in new:
            summary[name] = "removed solver"
        else:
            summary[name] = classify(old[name], new[name])

    changed = any(v != "bit-identical" for v in summary.values())
    if write and changed:
        golden_path.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return {
        "fixture": str(golden_path.relative_to(REPO_ROOT)),
        "summary": summary,
        "changed": changed,
        "written": write and changed,
        "details": {
            name: _first_delta(old.get(name, {}), new.get(name, {}))
            for name, verdict in summary.items()
            if verdict not in ("bit-identical", "new solver", "removed solver")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], prog="regen_goldens"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--dry-run",
        action="store_true",
        help="print the change summary without rewriting any fixture",
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="like --dry-run, but exit 1 if anything is not bit-identical "
        "(CI guard against stale goldens)",
    )
    args = parser.parse_args(argv)
    write = not (args.dry_run or args.check)

    report = regen_schedule_equivalence(write=write)
    print(f"fixture: {report['fixture']}")
    width = max(len(name) for name in report["summary"])
    for name, verdict in sorted(report["summary"].items()):
        note = report["details"].get(name)
        print(f"  {name:<{width}}  {verdict}" + (f" (first delta: {note})" if note else ""))
    if not report["changed"]:
        print("all solvers bit-identical; nothing to write")
    elif report["written"]:
        print("fixture rewritten — classify the change in your PR description")
    else:
        print("changes detected (fixture NOT rewritten)")
    if args.check and report["changed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
