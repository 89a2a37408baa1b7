"""Regenerate the golden traces pinning the schedule-IR refactor.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_schedule_goldens.py

The fixture freezes, for every synchronous distributed solver, the final
iterate, the per-epoch objectives, the modelled times and the communication
totals of a small deterministic run.  ``tests/test_schedule.py`` replays the
same runs through the declarative :class:`~repro.distributed.schedule.RoundPlan`
path (on the event and process engines) and compares bit-for-bit: the refactor from imperative
``map_workers`` + ``comm.*`` calls to compiled round plans must not change a
single float.

The file was first generated from the pre-refactor imperative solvers, so it
is also a cross-PR regression anchor; regenerate it only when an intentional
numerical change lands (and say so in the PR).
"""

import json
from pathlib import Path

from repro.admm.newton_admm import NewtonADMM
from repro.baselines.aide import AIDE
from repro.baselines.dane import InexactDANE
from repro.baselines.giant import GIANT
from repro.baselines.sync_sgd import SynchronousSGD
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster

GOLDEN_PATH = Path(__file__).parent / "schedule_equivalence.json"

N_WORKERS = 4

#: solver name -> factory, one per plan-driven solver of the harness registry
#: (``tests/test_process_engine.py`` checks it); epoch counts are kept tiny so
#: the whole fixture replays in seconds.
CASES = {
    "newton_admm": lambda: NewtonADMM(lam=1e-3, max_epochs=4, record_accuracy=False),
    "giant": lambda: GIANT(lam=1e-3, max_epochs=4, record_accuracy=False),
    "inexact_dane": lambda: InexactDANE(lam=1e-3, max_epochs=2, record_accuracy=False),
    "aide": lambda: AIDE(lam=1e-3, max_epochs=2, tau=0.5, record_accuracy=False),
    "sync_sgd": lambda: SynchronousSGD(
        lam=1e-3, max_epochs=2, step_size=0.2, record_accuracy=False
    ),
}


def run_case(name: str):
    cluster = SimulatedCluster(
        make_multiclass_gaussian(240, 10, 3, class_separation=3.0, random_state=0),
        N_WORKERS,
        engine="event",
        random_state=0,
    )
    trace = CASES[name]().fit(cluster)
    return {
        "dataset": "multiclass",
        "final_w": [float(v) for v in trace.final_w],
        "objectives": [r.objective for r in trace.records],
        "modelled_times": [r.modelled_time for r in trace.records],
        "comm_times": [r.comm_time for r in trace.records],
        "comm_rounds": cluster.comm.log.n_rounds,
        "n_collectives": cluster.comm.log.n_collectives,
        "bytes_transferred": cluster.comm.log.bytes_transferred,
    }


def main() -> None:
    golden = {name: run_case(name) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(golden)} solvers)")


if __name__ == "__main__":
    main()
