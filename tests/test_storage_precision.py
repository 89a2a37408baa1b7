"""The training data is held once per stage, at the cluster's precision.

- Under the default ``"mixed"`` cluster precision every registered solver
  runs float64 iterates, gradients and collective payloads over float32
  shards, on the event and the process engine.
- A cluster holds one shard buffer per worker, at the storage dtype, and the
  epoch record's per-shard losses read those same buffers.
- ``load_dataset`` splits the matrix it generated without a second full
  copy, and the epoch record checks and casts a test matrix once per fit.
- A dense fit never imports :mod:`scipy.sparse`; a CSR one still runs.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.backend import default_precision
from repro.backend.numpy_backend import NumpyBackend
from repro.datasets.base import train_test_split
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.comm import Communicator
from repro.distributed.solver_base import DistributedSolver, ShardedLoss
from repro.harness.runner import SOLVER_REGISTRY
from repro.objectives.softmax import SoftmaxCrossEntropy

SRC = Path(__file__).resolve().parent.parent / "src"
LAM = 1e-3


@pytest.fixture(scope="module")
def split():
    data = make_multiclass_gaussian(400, 50, 4, class_separation=3.0, random_state=0)
    return train_test_split(data, test_size=80, random_state=0)


def _solver(name):
    kwargs = {"lam": LAM, "max_epochs": 2}
    if name in ("sync_sgd", "async_sgd"):
        kwargs["random_state"] = 0
    return SOLVER_REGISTRY[name](**kwargs)


class _Dtypes:
    """Records the dtype of every iterate a record sees, every gradient or
    HVP a loss returns, and every buffer a collective moves."""

    def __init__(self, monkeypatch):
        self.iterates, self.gradients, self.payloads = set(), set(), set()
        record = DistributedSolver._make_record

        def make_record(solver, epoch, w, *args):
            self.iterates.add(w.dtype)
            return record(solver, epoch, w, *args)

        monkeypatch.setattr(DistributedSolver, "_make_record", make_record)
        for method in ("gradient", "value_and_gradient", "hvp"):
            monkeypatch.setattr(
                SoftmaxCrossEntropy,
                method,
                self._gradient(getattr(SoftmaxCrossEntropy, method)),
            )
        check = Communicator._check_buffers

        def check_buffers(buffers, n):
            self.payloads.update(b.dtype for b in buffers)
            return check(buffers, n)

        monkeypatch.setattr(Communicator, "_check_buffers", staticmethod(check_buffers))
        broadcast = Communicator.broadcast

        def broadcast_buffer(comm, buffer, **kwargs):
            self.payloads.add(buffer.dtype)
            return broadcast(comm, buffer, **kwargs)

        monkeypatch.setattr(Communicator, "broadcast", broadcast_buffer)

    def _gradient(self, method):
        def wrapped(obj, *args):
            out = method(obj, *args)
            self.gradients.add((out[1] if isinstance(out, tuple) else out).dtype)
            return out

        return wrapped


class TestFloat64IteratesOverFloat32Shards:
    @pytest.mark.parametrize(
        "engine",
        ["event", pytest.param("process", marks=pytest.mark.process_engine)],
    )
    @pytest.mark.parametrize("name", sorted(SOLVER_REGISTRY))
    def test_every_solver(self, name, engine, split, monkeypatch):
        solver = _solver(name)
        if engine == "process" and not solver.supports_process_engine:
            pytest.skip("asynchronous solvers run on the event engine")
        train, test = split
        cluster = SimulatedCluster(train, 2, engine=engine, random_state=0)
        try:
            assert cluster.precision == "mixed"
            for worker in cluster.workers:
                assert worker.shard.X.dtype == np.float32
                assert worker.objective.initial_point().dtype == np.float64
            dtypes = _Dtypes(monkeypatch)
            trace = solver.fit(cluster, test=test)
        finally:
            cluster.close()
        assert dtypes.iterates == {np.dtype(np.float64)}
        assert dtypes.gradients == {np.dtype(np.float64)}
        assert dtypes.payloads <= {np.dtype(np.float64)}
        if solver.supports_process_engine:
            assert dtypes.payloads
        assert np.isfinite(trace.final.objective)


def _held_buffers(root, skip):
    """The distinct buffers behind every ndarray reachable from ``root``
    through instances and containers (not through functions, classes or
    modules, and not through the objects in ``skip``)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.MethodType,
              types.BuiltinFunctionType)
    seen, stack, buffers = set(), [root], {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen or any(obj is s for s in skip) or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj
            continue
        stack.extend(gc.get_referents(obj))
    return list(buffers.values())


class TestOneShardCopy:
    def test_a_cluster_holds_one_buffer_per_worker(self, split):
        train, test = split
        cluster = SimulatedCluster(train, 3, random_state=0)
        smallest = min(w.shard.X.nbytes for w in cluster.workers)

        def data_buffers():
            held = _held_buffers(cluster, skip=[train])
            return [b for b in held if b.nbytes >= smallest // 2]

        for _ in range(2):
            buffers = data_buffers()
            assert len(buffers) == cluster.n_workers
            assert {b.dtype for b in buffers} == {np.dtype(np.float32)}
            for worker in cluster.workers:
                assert any(np.shares_memory(worker.shard.X, b) for b in buffers)
            NewtonADMM(lam=LAM, max_epochs=2).fit(cluster, test=test)

    def test_the_record_reads_the_workers_buffers(self, split):
        train, _ = split
        cluster = SimulatedCluster(train, 3, random_state=0)
        record = ShardedLoss(cluster, count_correct=True)
        for worker in cluster.workers:
            own = worker.objective.base.X
            assert own is worker.shard.X
            assert np.shares_memory(record._losses[worker.worker_id].X, own)

    def test_fp64_keeps_float64_shards(self, split):
        train, _ = split
        cluster = SimulatedCluster(train, 2, random_state=0, precision="fp64")
        for worker in cluster.workers:
            assert worker.shard.X.dtype == np.float64
            assert worker.objective.initial_point().dtype == np.float64


class TestLoadDatasetSplit:
    def test_peak_is_close_to_the_output(self):
        tracemalloc.start()
        try:
            train, test = load_dataset("mnist_like", n_train=4000, n_test=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (train.X.nbytes + test.X.nbytes)

    def test_public_split_leaves_its_input_alone(self, split):
        train, _ = split
        X, y = train.X.copy(), train.y.copy()
        a, b = train_test_split(train, test_size=30, random_state=0)
        np.testing.assert_array_equal(train.X, X)
        np.testing.assert_array_equal(train.y, y)
        assert a.n_samples + b.n_samples == train.n_samples


class TestEvalMatrixOncePerFit:
    def test_one_check_and_one_cast_of_the_test_matrix(self, split, monkeypatch):
        from repro.utils import validation

        train, test = split
        checks, casts = [], []
        check_array = validation.check_array
        monkeypatch.setattr(
            validation,
            "check_array",
            lambda X, **kw: checks.append(X is test.X) or check_array(X, **kw),
        )
        demote = NumpyBackend.demote_fp32
        monkeypatch.setattr(
            NumpyBackend,
            "demote_fp32",
            lambda bk, x: casts.append(x.shape == test.X.shape) or demote(bk, x),
        )
        cluster = SimulatedCluster(train, 2, random_state=0)
        trace = NewtonADMM(lam=LAM, max_epochs=4).fit(cluster, test=test)
        assert len(trace.records) == 4
        assert checks.count(True) == 1
        assert casts.count(True) == 1


@pytest.mark.process_engine
def test_ranks_keep_the_parents_session_default(split):
    """A rank's session default is the parent's, not the cluster's resolved
    precision: an objective resolving it must compute alike on every rank."""
    train, _ = split
    cluster = SimulatedCluster(train, 2, engine="process", random_state=0)
    try:
        runtime = cluster.process_runtime
        runtime.ensure_started()
        assert cluster.precision == "mixed"
        assert runtime.child_info[1]["session"]["precision"] == default_precision()
    finally:
        cluster.close()


def test_a_dense_fit_never_imports_scipy_sparse():
    code = """
import sys
import repro.serving.app
from repro import NewtonADMM, SimulatedCluster, load_dataset

train, test = load_dataset("mnist_like", n_train=200, n_test=50)
NewtonADMM(lam=1e-4, max_epochs=2).fit(SimulatedCluster(train, 2), test=test)
assert "scipy.sparse" not in sys.modules, sorted(
    m for m in sys.modules if m.startswith("scipy")
)
train, test = load_dataset("e18_like", n_train=200, n_test=50)
trace = NewtonADMM(lam=1e-4, max_epochs=2).fit(SimulatedCluster(train, 2), test=test)
assert "scipy.sparse" in sys.modules and len(trace.records) == 2
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
