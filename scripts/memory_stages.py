"""Resident memory of a fit, stage by stage: where a workload's peak comes from.

Reads this process's ``VmRSS`` (resident now) and ``VmHWM`` (high-water mark)
from ``/proc/self/status`` after each stage of a typical run — interpreter
start, ``import numpy``, ``import repro``, ``load_dataset``, the cluster
build, the worker-pool start and every fit — and prints one line per stage.
A stage whose ``VmHWM`` jumps set the peak; the fits' working set is the
``VmHWM`` after the last fit minus ``VmRSS`` before the first.  On
``--engine process`` it also prints each spawned rank's ``VmHWM`` (rank 0 is
this process).  The fits are ``NewtonADMM(lam=1e-5, max_epochs=10)`` on a
two-worker cluster, as in ``python3 -m bench``'s Newton-ADMM workloads.

Usage::

    PYTHONPATH=src python scripts/memory_stages.py --dataset mnist_like \\
        --n-train 8000 --n-test 2000 --engine event --fits 2
    PYTHONPATH=src python scripts/memory_stages.py --smoke --engine process

Uses the public ``repro`` API only.  Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict

N_WORKERS = 2
SMOKE_SIZES = (400, 100, 1)  # n_train, n_test, fits


def status_mb(pid: object = "self") -> Dict[str, float]:
    """``VmRSS`` and ``VmHWM`` of process ``pid``, in MB."""
    values = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values


def report(stage: str) -> None:
    mb = status_mb()
    print(f"{stage:<16} VmRSS {mb['VmRSS']:8.1f} MB   VmHWM {mb['VmHWM']:8.1f} MB", flush=True)


def report_ranks(runtime) -> None:
    """``VmHWM`` of each spawned rank (none off the process engine)."""
    if runtime is None:
        return
    for rank, pid in sorted(runtime.worker_pids().items()):
        print(f"{'':<16} rank {rank} VmHWM {status_mb(pid)['VmHWM']:8.1f} MB", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dataset", default="mnist_like")
    parser.add_argument("--n-train", type=int, default=8000)
    parser.add_argument("--n-test", type=int, default=2000)
    parser.add_argument("--engine", default="event", help="event, lockstep or process")
    parser.add_argument("--fits", type=int, default=2)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and one fit")
    args = parser.parse_args(argv)
    if args.smoke:
        args.n_train, args.n_test, args.fits = SMOKE_SIZES

    print(
        f"memory_stages: {args.dataset} {args.n_train}/{args.n_test}, "
        f"engine={args.engine}, {N_WORKERS} workers, {args.fits} fit(s)"
    )
    report("start")
    import numpy  # noqa: F401  (measured on its own: every rank imports it)

    report("import numpy")
    from repro import NewtonADMM, SimulatedCluster, load_dataset

    report("import repro")
    train, test = load_dataset(
        args.dataset, n_train=args.n_train, n_test=args.n_test, random_state=0
    )
    report("load_dataset")
    cluster = SimulatedCluster(train, N_WORKERS, engine=args.engine, random_state=0)
    try:
        report("cluster build")
        runtime = cluster.process_runtime
        if runtime is not None:
            runtime.ensure_started()
            report("pool start")
            report_ranks(runtime)
        for k in range(1, args.fits + 1):
            NewtonADMM(lam=1e-5, max_epochs=10).fit(cluster, test=test)
            report(f"fit {k}")
            report_ranks(runtime)
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
