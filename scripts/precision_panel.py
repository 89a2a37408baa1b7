"""What float32 storage costs each solver: a seed panel against ``"fp64"``.

For every solver of the harness registry and every seed, fits the same
problem on a ``precision="mixed"`` cluster (float32 shards, float64
iterates) and on a ``precision="fp64"`` cluster, and prints one markdown row
per solver:

- ``epochs to target`` — the first epoch from which the recorded objective
  stays below the target, as ``fp64 → mixed`` medians over the seeds, and
  on how many seeds the two agree (``—`` when a run never reaches it);
- ``final objective drift`` — ``|F_mixed - F_fp64| / F_fp64`` of the last
  record, median and maximum over the seeds, and on how many seeds the
  mixed run ended lower (a loss of accuracy ends higher on most);
- ``final_w drift`` — the relative L2 distance of the final iterates, max.

The problems are ``python3 -m bench``'s: ``mnist_like`` on two workers with
``lam = 1e-5``; 10 epochs and the dense target ``0.007 ln C`` for the
second-order solvers, 24 epochs and the SGD target ``0.12 ln C`` for the
SGDs.

Usage::

    PYTHONPATH=src python scripts/precision_panel.py            # 10 seeds
    PYTHONPATH=src python scripts/precision_panel.py --seeds 3 --smoke

Uses the public ``repro`` API only.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys

import numpy as np

N_WORKERS = 2
LAM = 1e-5
#: solver -> (max_epochs, target as a share of ln C); second-order solvers
#: use the dense bench target, the SGDs the sgd_proc one
SCHEDULE = {
    "newton_admm": (10, 0.007),
    "async_newton_admm": (10, 0.007),
    "giant": (10, 0.007),
    "inexact_dane": (10, 0.007),
    "aide": (10, 0.007),
    "sync_sgd": (24, 0.12),
    "async_sgd": (24, 0.12),
}


def epochs_to_target(objectives, target):
    """First epoch (1-based) from which every objective is below ``target``."""
    reached = None
    for epoch, value in enumerate(objectives, start=1):
        if value < target:
            reached = reached or epoch
        else:
            reached = None
    return reached


def run(name, seed, precision, sizes):
    from repro import SimulatedCluster, load_dataset
    from repro.harness.runner import SOLVER_REGISTRY

    n_train, n_test = sizes
    train, _ = load_dataset(
        "mnist_like", n_train=n_train, n_test=n_test, random_state=seed
    )
    cluster = SimulatedCluster(
        train, N_WORKERS, precision=precision, random_state=seed
    )
    cls = SOLVER_REGISTRY[name]
    kwargs = {"lam": LAM, "max_epochs": SCHEDULE[name][0], "record_accuracy": False}
    if "random_state" in cls.__init__.__code__.co_varnames:
        kwargs["random_state"] = seed
    trace = cls(**kwargs).fit(cluster)
    target = SCHEDULE[name][1] * math.log(cluster.n_classes)
    objectives = [r.objective for r in trace.records]
    return objectives, epochs_to_target(objectives, target), trace.final_w


def _median(values):
    values = [v for v in values if v is not None]
    return "—" if not values else f"{statistics.median(values):g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--n-train", type=int, default=2000)
    parser.add_argument("--n-test", type=int, default=500)
    parser.add_argument("--solvers", nargs="*", default=sorted(SCHEDULE))
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for a quick check"
    )
    args = parser.parse_args(argv)
    sizes = (400, 100) if args.smoke else (args.n_train, args.n_test)

    print(
        "| solver | epochs to target (fp64 → mixed) | same epoch | "
        "final objective drift, median | max | mixed lower | final_w drift, max |"
    )
    print("|---|---:|---:|---:|---:|---:|---:|")
    for name in args.solvers:
        drift, w_drift, epochs64, epochs32, same, lower = [], [], [], [], 0, 0
        for seed in range(args.seeds):
            obj64, e64, w64 = run(name, seed, "fp64", sizes)
            obj32, e32, w32 = run(name, seed, "mixed", sizes)
            drift.append(abs(obj32[-1] - obj64[-1]) / abs(obj64[-1]))
            w_drift.append(float(np.linalg.norm(w32 - w64) / np.linalg.norm(w64)))
            epochs64.append(e64)
            epochs32.append(e32)
            same += e64 == e32
            lower += obj32[-1] < obj64[-1]
        print(
            f"| {name} | {_median(epochs64)} → {_median(epochs32)} | "
            f"{same}/{args.seeds} | {statistics.median(drift):.1e} | "
            f"{max(drift):.1e} | {lower}/{args.seeds} | {max(w_drift):.1e} |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
