"""Precision modes: mixed/fp32 parity, session defaults, and flops honesty.

The documented contract (``docs/performance.md``, ``repro.backend.precision``)
is that a ``"mixed"`` or ``"fp32"`` solve reaches the same final objective as
the fp64 run within ``5e-4`` relative and the same final iterate within
``2e-3`` relative L2 — while the default ``None`` mode stays bit-reproducible.
This module asserts that contract for Newton-ADMM and GIANT on the synthetic
and mnist-like workloads, over every installed backend, plus the plumbing
around it (session default, cluster/CLI threading, dtype-misuse errors) and
the S6 requirement that the flops model agrees with what the backend actually
executed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.backend import (
    PRECISION_MODES,
    backend_available,
    resolve_precision,
    set_default_precision,
    storage_dtype,
)
from repro.backend.testing import TracingBackend
from repro.baselines.giant import GIANT
from repro.datasets.registry import mnist_like
from repro.distributed.cluster import SimulatedCluster
from repro.linalg.cg import conjugate_gradient
from repro.objectives.logistic import BinaryLogistic
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.base import CountingObjective
from repro.utils.flops import (
    softmax_gradient_flops,
    softmax_objective_flops,
    softmax_value_and_gradient_flops,
)

#: documented parity bounds for reduced-precision solves vs. the fp64 run
OBJECTIVE_RTOL = 5e-4
ITERATE_RTOL = 2e-3

BACKENDS = ["numpy"] + [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            not backend_available(name), reason=f"{name} not installed"
        ),
    )
    for name in ("cupy", "torch")
]

SOLVERS = {
    "newton_admm": lambda **kw: NewtonADMM(lam=1e-4, max_epochs=5, **kw),
    "giant": lambda **kw: GIANT(lam=1e-3, max_epochs=5, **kw),
}


def _mnist_train():
    train, _ = mnist_like(n_train=600, n_test=100, random_state=0)
    return train


@pytest.fixture()
def clean_default_precision():
    yield
    set_default_precision(None)


def _relative(a, b):
    return np.linalg.norm(np.asarray(a, dtype=np.float64) - b) / np.linalg.norm(b)


@pytest.mark.slow
@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("mode", ["mixed", "fp32"])
@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
class TestSolverParity:
    def _run(self, train, solver_name, precision, backend_name):
        cluster = SimulatedCluster(
            train, 4, random_state=0, backend=backend_name, precision=precision
        )
        return SOLVERS[solver_name]().fit(cluster)

    def _assert_parity(self, train, solver_name, mode, backend_name):
        ref = self._run(train, solver_name, "fp64", backend_name)
        low = self._run(train, solver_name, mode, backend_name)
        assert abs(low.final.objective - ref.final.objective) <= (
            OBJECTIVE_RTOL * abs(ref.final.objective)
        )
        assert _relative(low.final_w, ref.final_w) <= ITERATE_RTOL

    def test_synthetic(
        self, solver_name, mode, backend_name, small_multiclass_split
    ):
        train, _ = small_multiclass_split
        self._assert_parity(train, solver_name, mode, backend_name)

    def test_mnist_like(self, solver_name, mode, backend_name):
        self._assert_parity(_mnist_train(), solver_name, mode, backend_name)


class TestPrecisionPlumbing:
    def test_resolve_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="precision"):
            resolve_precision("bf16")
        with pytest.raises(ValueError, match="precision"):
            set_default_precision("half")

    def test_storage_dtype_mapping(self):
        assert storage_dtype("fp32") == np.float32
        assert storage_dtype("mixed") == np.float32
        assert storage_dtype("fp64") == np.float64
        assert storage_dtype(None) is None
        assert set(PRECISION_MODES) == {"fp64", "fp32", "mixed"}

    def test_session_default_reaches_objectives(self, clean_default_precision):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 4))
        y = rng.integers(0, 3, size=50)
        y[:3] = np.arange(3)
        set_default_precision("mixed")
        soft = SoftmaxCrossEntropy(X, y, 3)
        logi = BinaryLogistic(X, (y > 0).astype(np.int64))
        assert soft.precision == "mixed" and soft.X.dtype == np.float32
        assert logi.precision == "mixed" and logi.X.dtype == np.float32
        set_default_precision(None)
        assert SoftmaxCrossEntropy(X, y, 3).X.dtype == np.float64

    def test_cluster_threads_precision_to_workers(self, small_multiclass_split):
        train, _ = small_multiclass_split
        cluster = SimulatedCluster(train, 3, random_state=0, precision="fp32")
        assert cluster.describe()["precision"] == "fp32"
        for worker in cluster.workers:
            assert worker.objective.base.X.dtype == np.float32

    def test_cluster_default_precision_is_mixed(self, small_multiclass_split):
        train, _ = small_multiclass_split
        cluster = SimulatedCluster(train, 3, random_state=0)
        assert cluster.describe()["precision"] == "mixed"
        for worker in cluster.workers:
            assert worker.shard.X.dtype == np.float32
            assert worker.objective.base.X is worker.shard.X
            assert worker.objective.initial_point().dtype == np.float64

    def test_minibatch_inherits_precision(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 5))
        y = rng.integers(0, 3, size=60)
        y[:3] = np.arange(3)
        obj = SoftmaxCrossEntropy(X, y, 3, precision="mixed")
        batch = obj.minibatch(np.arange(20))
        assert batch.precision == "mixed"
        assert batch.X.dtype == np.float32

    def test_mixed_mode_gradient_close_to_fp64(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 6))
        y = rng.integers(0, 4, size=80)
        y[:4] = np.arange(4)
        ref = SoftmaxCrossEntropy(X, y, 4)
        mix = SoftmaxCrossEntropy(X, y, 4, precision="mixed")
        w64 = rng.standard_normal(ref.dim) * 0.1
        w32 = w64.astype(np.float32)
        assert mix.value(w32) == pytest.approx(ref.value(w64), rel=1e-5)
        assert _relative(mix.gradient(w32), ref.gradient(w64)) < 1e-5
        assert mix.gradient(w32).dtype == np.float32

    def test_mixed_dtype_misuse_still_raises(self):
        """precision='mixed' manages reductions, not sloppy dtype mixing —
        an fp32 operator applied to an fp64 vector is still an error."""
        from repro.linalg.operators import MatrixOperator

        op = MatrixOperator(np.eye(6, dtype=np.float32) * 2.0)
        with pytest.raises(TypeError, match="mixed dtypes"):
            op.matvec(np.zeros(6, dtype=np.float64))
        with pytest.raises(TypeError, match="mixed dtypes"):
            conjugate_gradient(
                op,
                np.ones(6, dtype=np.float64),
                tol=1e-4,
                max_iter=5,
                precision="mixed",
            )

    def test_default_precision_cg_bit_identical(self):
        """precision=None must not change CG reductions: same bits as a
        pre-precision-mode solve."""
        rng = np.random.default_rng(4)
        M = rng.standard_normal((10, 10))
        A = M @ M.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        from repro.linalg.operators import MatrixOperator

        op = MatrixOperator(A)
        plain = conjugate_gradient(op, b, tol=1e-12, max_iter=50)
        modeless = conjugate_gradient(op, b, tol=1e-12, max_iter=50, precision=None)
        np.testing.assert_array_equal(plain.x, modeless.x)


class TestFlopsAccounting:
    """S6: modelled flops follow the fused/cached execution, tied to what the
    TracingBackend actually counted."""

    def _problem(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((70, 6))
        y = rng.integers(0, 4, size=70)
        y[:4] = np.arange(4)
        return X, y

    def test_fused_flops_less_than_composed_sum(self):
        n, p, c = 70, 6, 4
        fused = softmax_value_and_gradient_flops(n, p, c)
        composed = softmax_objective_flops(n, p, c) + softmax_gradient_flops(n, p, c)
        assert fused < composed
        assert fused > softmax_gradient_flops(n, p, c)

    def test_counting_objective_charges_fused_cost(self):
        X, y = self._problem()
        obj = SoftmaxCrossEntropy(X, y, 4)
        counted = CountingObjective(obj)
        counted.value_and_gradient(np.zeros(obj.dim))
        assert counted.flops == obj.flops_value_and_gradient()
        assert counted.flops < obj.flops_value() + obj.flops_gradient()

    def test_flops_ordering_matches_traced_op_ordering(self):
        """The flops model claims fused < composed; the backend op counts
        must agree, so modelled time and real work move together."""
        X, y = self._problem()

        bk_f = TracingBackend()
        fused_obj = SoftmaxCrossEntropy(X, y, 4, backend=bk_f)
        w = fused_obj.check_weights(bk_f.asarray(np.zeros(fused_obj.dim)))
        bk_f.reset()
        fused_obj.value_and_gradient(w)
        fused_ops = bk_f.total_calls()

        bk_c = TracingBackend()
        composed_obj = SoftmaxCrossEntropy(X, y, 4, backend=bk_c)
        wc = composed_obj.check_weights(bk_c.asarray(np.zeros(composed_obj.dim)))
        bk_c.reset()
        composed_obj.value(wc)
        composed_obj._iterate_cache = None
        composed_obj.gradient(wc)
        composed_ops = bk_c.total_calls()

        flops_say_fused_cheaper = (
            fused_obj.flops_value_and_gradient()
            < fused_obj.flops_value() + fused_obj.flops_gradient()
        )
        ops_say_fused_cheaper = fused_ops < composed_ops
        assert flops_say_fused_cheaper and ops_say_fused_cheaper


class TestMixedLocalSolve:
    """Under the default ``"mixed"`` cluster precision, Newton-ADMM's local
    x-update reads each worker's float32 shard at float64 iterates; a
    cluster of ``precision="fp64"`` is the reference path."""

    #: ``final_w`` sha256 of Newton-ADMM on an ``precision="fp64"`` cluster
    #: for the two problems of ``_fit`` — the fp64 local solve as it was
    #: before the mixed default existed
    FP64_SHA256 = {
        "dense": "670f33b9510929a702d8dc3e0e99477a0fb4f84fc9c63065e8dda2824064fa91",
        "csr": "c4fdab73bbb1334d29fddbee9cedc8b03bb353f458eb45eda6602f67aa5ef016",
    }

    @staticmethod
    def _fit(problem, precision=None):
        from repro.datasets.registry import load_dataset
        from repro.datasets.synthetic import make_multiclass_gaussian

        if problem == "dense":
            train = make_multiclass_gaussian(
                400, 12, 4, condition_number=8.0, class_separation=2.5, random_state=1
            )
            cluster = SimulatedCluster(train, 4, random_state=0, precision=precision)
            solver = NewtonADMM(lam=1e-4, max_epochs=8)
        else:
            train, _ = load_dataset("e18_like", n_train=300, n_test=50, random_state=0)
            cluster = SimulatedCluster(train, 2, random_state=0, precision=precision)
            solver = NewtonADMM(lam=1e-4, max_epochs=6)
        return solver.fit(cluster), cluster

    def test_float64_iterate_runs_float32_products(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((90, 7))
        y = rng.integers(0, 4, size=90)
        y[:4] = np.arange(4)
        obj = SoftmaxCrossEntropy(X, y, 4, precision="mixed")
        w = rng.standard_normal(obj.dim) * 0.1
        v = rng.standard_normal(obj.dim)
        _, grad = obj.value_and_gradient(w)
        assert obj._iterate_cache["logits"].dtype == np.float32
        assert obj._iterate_cache["logits_hp"].dtype == np.float64
        assert grad.dtype == np.float64
        assert obj.hvp(w, v).dtype == np.float64
        ref = SoftmaxCrossEntropy(X, y, 4)
        assert _relative(grad, ref.gradient(w)) < 1e-5
        assert _relative(obj.hvp(w, v), ref.hvp(w, v)) < 1e-5

    def test_logistic_float64_iterate_runs_float32_products(self):
        """The binary logistic loss takes the same cast: every product with
        float32 ``X`` runs in float32, results come back float64."""
        rng = np.random.default_rng(4)
        X = rng.standard_normal((80, 6))
        y = (rng.random(80) < 0.5).astype(int)
        y[:2] = [0, 1]
        obj = BinaryLogistic(X, y, precision="mixed")
        products = []

        class _Recording(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                inputs = [np.asarray(x) for x in inputs]
                if ufunc is np.matmul:
                    products.append(np.result_type(*inputs))
                return getattr(ufunc, method)(*inputs, **kwargs)

        obj.X = obj.X.view(_Recording)
        w, v = rng.standard_normal(6), rng.standard_normal(6)
        _, grad = obj.value_and_gradient(w)
        hv = obj.hvp(w, v)
        proba = obj.predict_proba(w, X)
        assert products == [np.float32] * 5
        assert obj._eval_matrix(X).dtype == np.float32
        assert grad.dtype == hv.dtype == np.float64
        ref = BinaryLogistic(X, y)
        assert _relative(grad, ref.gradient(w)) < 1e-5
        assert _relative(hv, ref.hvp(w, v)) < 1e-5
        np.testing.assert_allclose(proba, ref.predict_proba(w, X), rtol=1e-5)

    def test_logistic_cluster_solves_on_a_float32_copy(self):
        from repro.datasets.synthetic import make_multiclass_gaussian

        train = make_multiclass_gaussian(
            400, 12, 2, condition_number=8.0, class_separation=2.5, random_state=1
        )

        def fit(precision=None):
            cluster = SimulatedCluster(
                train, 4, loss="logistic", random_state=0, precision=precision
            )
            return NewtonADMM(lam=1e-4, max_epochs=8).fit(cluster), cluster

        ref, _ = fit("fp64")
        low, cluster = fit()
        for worker in cluster.workers:
            assert worker.objective.base.X.dtype == np.float32
            assert worker.objective.base.X is worker.shard.X
        assert low.final_w.dtype == np.float64
        assert abs(low.final.objective - ref.final.objective) <= (
            OBJECTIVE_RTOL * abs(ref.final.objective)
        )
        assert _relative(low.final_w, ref.final_w) <= ITERATE_RTOL

    def test_factory_ignoring_precision_solves_on_the_workers_own_loss(
        self, small_multiclass_split
    ):
        """A two-argument factory gets the cluster's float32 shard and its
        loss follows that data; the x-update runs on it, without a copy."""
        train, _ = small_multiclass_split

        def factory(shard, n_total):
            return SoftmaxCrossEntropy(
                shard.X, shard.y, shard.n_classes, scale=1.0 / n_total
            )

        cluster = SimulatedCluster(train, 2, loss=factory, random_state=0)
        trace = NewtonADMM(lam=1e-4, max_epochs=2).fit(cluster)
        for worker in cluster.workers:
            assert worker.objective.base.X is worker.shard.X
            assert worker.objective.n_hvp > 0
        assert np.isfinite(trace.final.objective)

    @pytest.mark.parametrize("problem", ["dense", "csr"])
    def test_fp64_reproduces_the_reference_path(self, problem):
        trace, _ = self._fit(problem, precision="fp64")
        digest = hashlib.sha256(np.ascontiguousarray(trace.final_w).tobytes())
        assert digest.hexdigest() == self.FP64_SHA256[problem]

    @pytest.mark.parametrize("problem", ["dense", "csr"])
    def test_default_within_documented_tolerance_of_fp64(self, problem):
        ref, _ = self._fit(problem, precision="fp64")
        low, cluster = self._fit(problem)
        assert cluster.precision == "mixed"
        assert all(w.objective.base.precision == "mixed" for w in cluster.workers)
        assert not np.array_equal(low.final_w, ref.final_w)  # it did run mixed
        assert abs(low.final.objective - ref.final.objective) <= (
            OBJECTIVE_RTOL * abs(ref.final.objective)
        )
        assert _relative(low.final_w, ref.final_w) <= ITERATE_RTOL

    def test_modelled_clock_and_flops_match_fp64(self):
        ref, _ = self._fit("dense", precision="fp64")
        low, _ = self._fit("dense")
        assert low.info["total_flops"] == ref.info["total_flops"]
        for a, b in zip(low.records, ref.records):
            assert a.compute_time == b.compute_time
            assert a.modelled_time == b.modelled_time

    def test_shard_copy_built_once_per_cluster(self, small_multiclass_split):
        """The cluster gathers each shard once, at build, in float32; the
        workers' losses and later fits read that buffer and copy nothing."""
        train, _ = small_multiclass_split
        cluster = SimulatedCluster(train, 3, random_state=0)
        shards = [w.shard.X for w in cluster.workers]
        assert all(X.dtype == np.float32 for X in shards)
        for _ in range(2):
            NewtonADMM(lam=1e-4, max_epochs=2).fit(cluster)
        for worker, X in zip(cluster.workers, shards):
            assert worker.shard.X is X
            assert worker.objective.base.X is X

    def test_cluster_or_session_precision_selects_the_local_solve(
        self, small_multiclass_split, clean_default_precision
    ):
        """The storage dtype the local solve reads is the cluster's: its
        own ``precision=``, else the session default, else ``"mixed"``."""
        train, _ = small_multiclass_split

        def storage(cluster):
            NewtonADMM(lam=1e-4, max_epochs=2).fit(cluster)
            return {w.objective.base.X.dtype.type for w in cluster.workers}

        for precision, dtype in (("fp64", np.float64), ("mixed", np.float32)):
            cluster = SimulatedCluster(train, 2, random_state=0, precision=precision)
            assert storage(cluster) == {dtype}
        set_default_precision("fp64")
        cluster = SimulatedCluster(train, 2, random_state=0)
        assert cluster.precision == "fp64" and storage(cluster) == {np.float64}

    def test_each_epoch_starts_from_the_previous_evaluation(
        self, small_multiclass_split, monkeypatch
    ):
        """The x-update warm-starts from the very object the previous local
        solve last evaluated, so only each worker's first local solve pays a
        cold forward+gradient pass; the epoch records pay one per shard."""
        train, _ = small_multiclass_split
        cold = []
        inner = SoftmaxCrossEntropy._forward_and_gradient
        monkeypatch.setattr(
            SoftmaxCrossEntropy,
            "_forward_and_gradient",
            lambda obj, w: cold.append(obj) or inner(obj, w),
        )
        cluster = SimulatedCluster(train, 3, random_state=0)
        trace = NewtonADMM(lam=1e-4, max_epochs=6).fit(cluster)
        worker_losses = [w.objective.base for w in cluster.workers]
        local = [obj for obj in cold if any(obj is loss for loss in worker_losses)]
        assert len(local) == 3
        assert len(cold) - len(local) == 3 * len(trace.records)

    def test_cli_precision_fp64_restores_the_fp64_local_solve(
        self, small_multiclass_split, monkeypatch, clean_default_precision
    ):
        """``python -m repro run ... --precision fp64`` sets the session
        default the cluster resolves, and Newton-ADMM's local solve follows
        it back to float64 shards."""
        from repro.harness import cli

        train, _ = small_multiclass_split
        fits = []

        def tiny_experiment(scale, *, seed=0):
            cluster = SimulatedCluster(train, 2, random_state=seed)
            fits.append((NewtonADMM(lam=1e-4, max_epochs=3).fit(cluster), cluster))
            return {"report": "tiny"}

        monkeypatch.setitem(
            cli.EXPERIMENT_REGISTRY, "table1", (tiny_experiment, "tiny", None)
        )
        assert cli.main(["run", "table1", "--no-plot"], print_fn=lambda _: None) == 0
        args = ["run", "table1", "--no-plot", "--precision", "fp64"]
        assert cli.main(args, print_fn=lambda _: None) == 0
        (mixed, mixed_cluster), (fp64, fp64_cluster) = fits
        assert mixed_cluster.precision == "mixed"
        assert fp64_cluster.precision == "fp64"
        set_default_precision(None)
        reference = NewtonADMM(lam=1e-4, max_epochs=3).fit(
            SimulatedCluster(train, 2, random_state=0, precision="fp64")
        )
        np.testing.assert_array_equal(fp64.final_w, reference.final_w)
        assert not np.array_equal(mixed.final_w, reference.final_w)
