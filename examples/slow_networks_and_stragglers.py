"""Systems sensitivity study: slow interconnects, stragglers, and asynchrony.

The paper argues that Newton-ADMM's single communication round per iteration
"significantly improves performance, particularly in environments with higher
communication costs".  This example runs Newton-ADMM and GIANT on the same
8-worker cluster under three interconnects (100 Gb/s InfiniBand, 10 GbE, and a
slow WAN link) and then again with one persistently slow worker, printing the
modelled epoch-time breakdown for each configuration.  It closes with the
event engine's view of the straggler problem: a per-worker Gantt chart of the
synchronous schedule (everyone waits for worker 0) and the asynchronous
quorum-based Newton-ADMM that does not.

Run with:  python examples/slow_networks_and_stragglers.py
(`--smoke` shrinks the workload to CI size; the docs CI job runs it.)
"""

import sys

from repro import (
    GIANT,
    AsyncNewtonADMM,
    NewtonADMM,
    SimulatedCluster,
    StragglerModel,
    ethernet_10g,
    infiniband_100g,
    load_dataset,
)
from repro.distributed.network import wan_slow
from repro.harness.plotting import plot_gantt
from repro.metrics import format_table
from repro.metrics.traces import average_epoch_time, time_to_objective

SMOKE = "--smoke" in sys.argv[1:]


def run(method_name, train, test, *, network, straggler=None):
    cluster = SimulatedCluster(
        train, n_workers=8, network=network, straggler=straggler, random_state=0
    )
    solver_cls = {"newton_admm": NewtonADMM, "giant": GIANT}[method_name]
    solver = solver_cls(
        lam=1e-5, max_epochs=3 if SMOKE else 5, cg_max_iter=10,
        record_accuracy=False,
    )
    trace = solver.fit(cluster, test=test)
    return {
        "method": method_name,
        "epoch_time_ms": 1e3 * average_epoch_time(trace),
        "compute_ms": 1e3 * trace.final.compute_time / trace.n_epochs,
        "comm_ms": 1e3 * trace.final.comm_time / trace.n_epochs,
        "comm_rounds_per_epoch": trace.final.comm_rounds / trace.n_epochs,
    }


def main() -> None:
    n_train, n_test = (600, 120) if SMOKE else (4000, 800)
    train, test = load_dataset("mnist_like", n_train=n_train, n_test=n_test, random_state=0)

    # --- interconnect sweep ---------------------------------------------------
    for network in (infiniband_100g(), ethernet_10g(), wan_slow()):
        rows = [
            run(method, train, test, network=network)
            for method in ("newton_admm", "giant")
        ]
        print(format_table(rows, title=f"Interconnect: {network.name}"))
        ratio = rows[1]["epoch_time_ms"] / rows[0]["epoch_time_ms"]
        print(f"GIANT / Newton-ADMM epoch-time ratio: {ratio:.2f}\n")

    # --- straggler sweep --------------------------------------------------------
    for slowdown in (1.0, 8.0):
        straggler = (
            None
            if slowdown == 1.0
            else StragglerModel(slowdown=slowdown, persistent_stragglers=[0])
        )
        rows = [
            run(method, train, test, network=infiniband_100g(), straggler=straggler)
            for method in ("newton_admm", "giant")
        ]
        print(
            format_table(
                rows, title=f"Persistent straggler on worker 0, slowdown x{slowdown:g}"
            )
        )
        print()

    # --- the event engine's view: sync barrier vs async quorum ----------------
    def straggling_cluster():
        return SimulatedCluster(
            train,
            n_workers=4,
            straggler=StragglerModel(slowdown=8.0, persistent_stragglers=[0]),
            random_state=0,
        )

    sync = NewtonADMM(lam=1e-5, max_epochs=4, record_accuracy=False).fit(
        straggling_cluster()
    )
    print(
        plot_gantt(
            sync.info["timelines"],
            width=64,
            title="Synchronous Newton-ADMM, straggler x8 on worker 0",
        )
    )
    print()

    asyn_solver = AsyncNewtonADMM(
        lam=1e-5, max_epochs=16, quorum=3, max_staleness=10, record_accuracy=False
    )
    asyn = asyn_solver.fit(straggling_cluster())
    print(
        plot_gantt(
            asyn.info["timelines"],
            width=64,
            title="Async (quorum-3) Newton-ADMM on the same cluster",
        )
    )
    reached = time_to_objective(asyn, sync.final.objective)
    print(
        f"\nasync reaches the sync final objective in {reached:.3g}s modelled "
        f"vs {sync.final.modelled_time:.3g}s for sync "
        f"(final staleness record: {asyn_solver.staleness_log[-1]})"
    )


if __name__ == "__main__":
    main()
