"""Performance-regression gate over the committed BENCH_*.json files (stdlib only).

Two benchmark families feed this gate:

- ``BENCH_kernels.json`` (``benchmarks/test_bench_kernels.py``): each optimized
  hot path measured against its pre-optimization baseline.  A gated kernel's
  recorded speedup dropping under 1.0x on the NumPy backend can only happen
  through a structural regression (an extra GEMM, a lost cache hit, a per-call
  host copy), not through benchmark noise: the ratios sit at 1.5x-2.4x with
  best-of-N timing on both sides.  The ``fused_path_op_budget`` entry is a
  deterministic backend-operation *count* ratio (TracingBackend), completely
  immune to runner noise.

- ``BENCH_process_engine.json`` (``benchmarks/test_bench_process_engine.py``):
  measured wall-clock of real worker OS processes at 1/2/4/8 workers.  Only
  entries recorded with ``gated: true`` — i.e. on a host with at least as many
  usable cores as workers — are enforced at >= 1.0x; single-core runners
  record the (necessarily < 1.0x) ratios for the trajectory without failing
  the build, with the reason stored in the entry.

Serving has no file here: ``python3 -m bench --workload serve_http`` measures
the request path end to end and checks every reply.

Usage (what the CI benchmarks job runs)::

    python scripts/check_bench.py              # checks the committed files
    python scripts/check_bench.py FILE [...]   # checks the named files

Exit code 0 when every gated speedup is >= its threshold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

#: kernels whose recorded speedup must stay at or above 1.0x
GATED_KERNELS = (
    "fused_value_and_gradient",
    "cached_hvp",
    "block_cg",
    "batched_hvp",
    "fused_path_op_budget",
)

THRESHOLD = 1.0

_REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILES = (
    _REPO_ROOT / "BENCH_kernels.json",
    _REPO_ROOT / "BENCH_process_engine.json",
)


def _check_kernels(path: Path, kernels: dict) -> int:
    failures = 0
    for name in GATED_KERNELS:
        entry = kernels.get(name)
        if entry is None:
            print(f"check_bench: gated kernel {name!r} missing from {path}",
                  file=sys.stderr)
            failures += 1
            continue
        speedup = float(entry["speedup"])
        status = "OK" if speedup >= THRESHOLD else "REGRESSED"
        print(f"check_bench: {name}: {speedup:.3f}x [{status}]")
        if speedup < THRESHOLD:
            print(
                f"check_bench: {name} regressed below {THRESHOLD:.1f}x — the "
                f"optimized path ({entry.get('optimized', '?')}) is now slower "
                f"than its baseline ({entry.get('baseline', '?')})",
                file=sys.stderr,
            )
            failures += 1
    if not failures:
        print(f"check_bench: OK ({len(GATED_KERNELS)} gated kernel(s))")
    return failures


def _check_process_engine(path: Path, entries: dict) -> int:
    failures = 0
    gated = 0
    for name in sorted(entries):
        entry = entries[name]
        speedup = float(entry["speedup"])
        if not entry.get("gated", False):
            reason = entry.get("ungated_reason", "recorded ungated")
            print(f"check_bench: {name}: {speedup:.3f}x [ungated: {reason}]")
            continue
        gated += 1
        status = "OK" if speedup >= THRESHOLD else "REGRESSED"
        print(f"check_bench: {name}: {speedup:.3f}x [{status}]")
        if speedup < THRESHOLD:
            print(
                f"check_bench: {name} — {entry.get('n_workers', '?')} real "
                f"worker processes ran slower than one on a host with "
                f"{entry.get('cpu_count', '?')} usable cores",
                file=sys.stderr,
            )
            failures += 1
    if not failures:
        if gated:
            print(f"check_bench: OK ({gated} gated speedup entr(y/ies))")
        else:
            print(
                "check_bench: OK (no entries gated on the recording host — "
                "measured ratios kept for the trajectory only)"
            )
    return failures


def check_file(path: Path) -> int:
    if not path.exists():
        print(f"check_bench: {path} not found — run "
              "'PYTHONPATH=src python -m pytest benchmarks/' to generate it",
              file=sys.stderr)
        return 1
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"check_bench: {path} is not valid JSON ({exc})", file=sys.stderr)
        return 1
    if "kernels" in payload:
        return _check_kernels(path, payload["kernels"])
    if "entries" in payload:
        return _check_process_engine(path, payload["entries"])
    print(f"check_bench: {path} has no 'kernels' or 'entries' key", file=sys.stderr)
    return 1


def main(argv: List[str]) -> int:
    paths = [Path(a) for a in argv] if argv else list(DEFAULT_FILES)
    failures = sum(check_file(p) for p in paths)
    if failures:
        print(f"check_bench: {failures} gated entr(y/ies) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
