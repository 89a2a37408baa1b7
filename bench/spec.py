"""Workload parameters and the metric table read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the single definition of workload names, metric names,
units, directions and bounds; this module only adds what that file cannot
hold — the inputs of each workload.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch for registry roots and result files; inside the checkout, ignored by git
TMP_ROOT = ROOT / ".bench_tmp"
RESULTS_ROOT = ROOT / ".bench_results"

#: workers/ranks of every cluster = nproc of the reference host
N_WORKERS = 2
LAM = 1e-5


def add_src_to_path() -> None:
    """Make ``repro`` importable from the checkout the benchmark runs in."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"bench: no program to measure — {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.

    ``fit_share`` and ``serve_share`` split ``--seconds`` between the two timed
    phases: the number of timed fits is ``fit_share * seconds`` over the
    warm-up fit's duration (at least 2), and ``clients`` closed-loop HTTP
    clients are recorded for ``serve_share * seconds``.  The training workloads
    serve with one client: two clients' requests interfere in the server's
    batching window, which makes the median latency of a 2 s window bimodal.
    ``target_rel`` is the training
    objective, as a share of ``ln(n_classes)`` (the objective at ``w = 0``),
    that a fit must reach and stay below.
    """

    name: str
    dataset: str
    n_train: int
    n_test: int
    solver: str
    max_epochs: int
    engine: str
    target_rel: float
    fit_share: float
    serve_share: float
    clients: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dense_sim", "mnist_like", 8000, 2000, "newton_admm", 10, "lockstep", 0.007, 1.0, 0.2, 1),
        Workload("dense_proc", "mnist_like", 8000, 2000, "newton_admm", 10, "process", 0.007, 0.8, 0.2, 1),
        Workload("sparse_proc", "e18_like", 4000, 800, "newton_admm", 10, "process", 0.03, 0.9, 0.2, 1),
        Workload("sgd_proc", "mnist_like", 8000, 2000, "sync_sgd", 24, "process", 0.12, 0.9, 0.2, 1),
        Workload("serve_http", "mnist_like", 2000, 500, "newton_admm", 10, "lockstep", 0.003, 0.25, 1.0, 2),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0


class BenchmarkSpec:
    """``BENCHMARK.json`` parsed: what every run must emit, name for name."""

    def __init__(self, path: Path = ROOT / "BENCHMARK.json"):
        raw = json.loads(path.read_text())
        self.raw = raw
        self.run_seconds = int(raw["run_seconds"])
        self.workloads = [w["name"] for w in raw["workloads"]]
        self.end_to_end = {m["name"]: Metric(**m) for m in raw["end_to_end"]}
        self.per_layer = {m["name"]: Metric(**m) for m in raw["per_layer"]}

    def emit(self, group: str, values: Dict[str, float]) -> Dict[str, dict]:
        """``{name: {"value", "unit"}}`` for one metric group; raises when the
        measured names differ from the declared ones."""
        declared = self.end_to_end if group == "end_to_end" else self.per_layer
        if set(values) != set(declared):
            missing = sorted(set(declared) - set(values))
            extra = sorted(set(values) - set(declared))
            raise RuntimeError(
                f"{group} metrics drifted from BENCHMARK.json: missing {missing}, undeclared {extra}"
            )
        return {
            name: {"value": float(values[name]), "unit": metric.unit}
            for name, metric in declared.items()
        }
