"""The epoch record: a rank-ordered fold of per-shard partials.

Every rank evaluates only the shards it holds (its own, on the process
engine) and the partials meet once per record, so the record

- equals a full-data evaluation up to the reassociation of the sum,
- is bit-identical across the event and process engines,
- adds nothing to the modelled communication log, and
- still stops ``tol_grad`` runs at the epoch the gradient norm says.

A fit also leaves no cyclic garbage behind: every Newton step's operator,
iterate and subproblem die by reference count when the step ends.
"""

import gc

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.baselines.giant import GIANT
from repro.baselines.sync_sgd import SynchronousSGD
from repro.datasets.base import train_test_split
from repro.datasets.synthetic import make_multiclass_gaussian, make_sparse_multiclass
from repro.distributed.cluster import SimulatedCluster
from repro.metrics.classification import accuracy

#: the tests that spawn worker processes (watchdog + /dev/shm audit)
process_engine = pytest.mark.process_engine

ENGINES = ("event", "process")
LAM = 1e-3

#: agreement of a sum accumulated in float32 with the same sum reassociated
RTOL_FP32 = 16 * float(np.finfo(np.float32).eps)


@pytest.fixture(scope="module")
def dense_split():
    data = make_multiclass_gaussian(300, 10, 3, class_separation=2.0, random_state=0)
    return train_test_split(data, test_size=0.2, random_state=0)


@pytest.fixture(scope="module")
def csr_split():
    data = make_sparse_multiclass(300, 200, 4, density=0.05, random_state=2)
    return train_test_split(data, test_size=0.2, random_state=0)


def _fit(solver, train, engine="event", n_workers=2, test=None, **cluster_kwargs):
    cluster = SimulatedCluster(
        train, n_workers, engine=engine, random_state=0, **cluster_kwargs
    )
    try:
        return solver.fit(cluster, test=test), cluster
    finally:
        cluster.close()


class TestShardedRecord:
    @pytest.mark.parametrize(
        "kind, precision, rtol_value, rtol_grad",
        [
            ("dense", "fp64", 1e-12, 1e-12),
            ("csr", "fp64", 1e-12, 1e-12),
            # float32 sums cannot agree to 1e-12 once reassociated; "mixed"
            # accumulates the objective in float64, its gradient in float32
            ("dense", "fp32", RTOL_FP32, RTOL_FP32),
            ("dense", "mixed", 1e-12, RTOL_FP32),
        ],
    )
    def test_equals_a_full_data_evaluation(
        self, kind, precision, rtol_value, rtol_grad, dense_split, csr_split
    ):
        train, test = dense_split if kind == "dense" else csr_split
        trace, cluster = _fit(
            NewtonADMM(lam=LAM, max_epochs=3), train, n_workers=3, test=test,
            precision=precision,
        )
        record = trace.records[-1]  # made at the iterate returned as final_w
        full = cluster.global_objective(LAM)
        w = trace.final_w.astype(full.initial_point().dtype)
        value, grad = full.value_and_gradient(w)
        assert record.objective == pytest.approx(value, rel=rtol_value, abs=0)
        assert record.grad_norm == pytest.approx(
            float(np.linalg.norm(grad)), rel=rtol_grad, abs=0
        )
        assert record.train_accuracy == accuracy(train.y, full.loss.predict(w))
        assert record.test_accuracy == accuracy(test.y, full.loss.predict(w, test.X))

    @process_engine
    @pytest.mark.parametrize(
        "make",
        [
            lambda: NewtonADMM(lam=LAM, max_epochs=3),
            lambda: SynchronousSGD(lam=LAM, max_epochs=2, step_size=0.2),
        ],
        ids=["newton_admm", "sync_sgd"],
    )
    def test_bit_identical_across_engines(self, make, dense_split):
        train, test = dense_split
        records = {}
        for engine in ("event", "process"):
            trace, _ = _fit(make(), train, engine, test=test)
            records[engine] = [
                (r.epoch, r.objective, r.grad_norm, r.train_accuracy, r.test_accuracy)
                for r in trace.records
            ]
        assert records["event"] == records["process"]
        assert all(np.isfinite(row).all() for row in records["process"])

    @process_engine
    def test_adds_nothing_to_the_communication_log(self, dense_split):
        train, _ = dense_split
        every, _ = _fit(NewtonADMM(lam=LAM, max_epochs=4), train, "process")
        last, _ = _fit(
            NewtonADMM(lam=LAM, max_epochs=4, evaluate_every=4), train, "process"
        )
        assert len(every.records) == 4 and len(last.records) == 1
        assert every.info["communication"] == last.info["communication"]
        assert np.array_equal(every.final_w, last.final_w)

    @process_engine
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tol_grad_stops_at_the_same_epoch(self, engine, dense_split):
        train, _ = dense_split
        free, _ = _fit(NewtonADMM(lam=LAM, max_epochs=6), train)
        norms = [r.grad_norm for r in free.records]
        assert norms[2] < norms[1]
        tol = float(np.sqrt(norms[1] * norms[2]))  # between epochs 2 and 3
        first = next(r.epoch for r in free.records if r.grad_norm <= tol)
        stopped, _ = _fit(NewtonADMM(lam=LAM, max_epochs=6, tol_grad=tol), train, engine)
        assert stopped.records[-1].epoch == first
        assert [r.grad_norm for r in stopped.records] == norms[:first]


class TestNoCyclicGarbage:
    @process_engine
    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_fit_leaves_nothing_for_the_cycle_collector(self, engine, dense_split):
        train, test = dense_split
        cluster = SimulatedCluster(train, 2, engine=engine, random_state=0)
        makers = (
            lambda: NewtonADMM(lam=LAM, max_epochs=3),
            lambda: GIANT(lam=LAM, max_epochs=3),
            lambda: SynchronousSGD(lam=LAM, max_epochs=2, step_size=0.2),
        )
        try:
            for make in makers:
                make().fit(cluster, test=test)  # warm: worker pool, lazy imports
                gc.collect()
                gc.disable()
                try:
                    make().fit(cluster, test=test)
                    assert gc.collect() == 0, type(make()).__name__
                finally:
                    gc.enable()
        finally:
            cluster.close()
