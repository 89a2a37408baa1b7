"""Backend parity: every available backend must reproduce the NumPy numbers.

The suite is parametrized over all *available* optional backends (CuPy /
Torch when installed) plus the always-available
:class:`~repro.backend.testing.TracingBackend` double, which computes with
NumPy semantics while recording every dispatch — so the seam is exercised in
CI even on machines with no GPU libraries.  Optional backends that cannot be
imported are skipped cleanly, never failed.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.admm.newton_admm import NewtonADMM
from repro.backend import (
    BackendUnavailableError,
    available_backends,
    backend_available,
    default_backend,
    get_backend,
    infer_backend,
    set_default_backend,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.testing import TracingBackend
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.objectives.logistic import BinaryLogistic
from repro.objectives.softmax import SoftmaxCrossEntropy

#: optional accelerator backends probed for availability at collection time
OPTIONAL_BACKENDS = ["cupy", "torch"]

PARITY_BACKENDS = [pytest.param("tracing", id="tracing")] + [
    pytest.param(
        name,
        id=name,
        marks=pytest.mark.skipif(
            not backend_available(name), reason=f"{name} not installed"
        ),
    )
    for name in OPTIONAL_BACKENDS
]


def _make_backend(name):
    if name == "tracing":
        return TracingBackend()
    return get_backend(name)


def _rng_problem(n=80, p=6, c=3, seed=0, sparse=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if sparse:
        X[X < 0.5] = 0.0
        X = sp.csr_matrix(X)
    y = rng.integers(0, c, size=n)
    y[:c] = np.arange(c)  # every class present
    return X, y


OBJECTIVES = {
    "softmax": lambda X, y, backend: SoftmaxCrossEntropy(X, y, 3, backend=backend),
    "logistic": lambda X, y, backend: BinaryLogistic(
        X, (y > 0).astype(np.int64), backend=backend
    ),
}


@pytest.mark.parametrize("backend_name", PARITY_BACKENDS)
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("objective_name", sorted(OBJECTIVES))
class TestObjectiveParity:
    """Value, gradient and HVP agree across backends on dense and CSR data."""

    def _pair(self, objective_name, sparse, backend_name):
        X, y = _rng_problem(sparse=sparse)
        make = OBJECTIVES[objective_name]
        reference = make(X, y, None)
        backend = _make_backend(backend_name)
        candidate = make(X, y, backend)
        return reference, candidate, backend

    def test_value_parity(self, objective_name, sparse, backend_name):
        reference, candidate, backend = self._pair(objective_name, sparse, backend_name)
        w = np.random.default_rng(1).standard_normal(reference.dim) * 0.1
        ref = reference.value(w)
        got = candidate.value(backend.asarray(w))
        assert got == pytest.approx(ref, abs=1e-6, rel=1e-6)

    def test_gradient_parity(self, objective_name, sparse, backend_name):
        reference, candidate, backend = self._pair(objective_name, sparse, backend_name)
        w = np.random.default_rng(2).standard_normal(reference.dim) * 0.1
        ref = reference.gradient(w)
        got = backend.to_numpy(candidate.gradient(backend.asarray(w)))
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=1e-6)

    def test_hvp_parity(self, objective_name, sparse, backend_name):
        reference, candidate, backend = self._pair(objective_name, sparse, backend_name)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(reference.dim) * 0.1
        v = rng.standard_normal(reference.dim)
        ref = reference.hvp(w, v)
        got = backend.to_numpy(candidate.hvp(backend.asarray(w), backend.asarray(v)))
        np.testing.assert_allclose(got, ref, atol=1e-6, rtol=1e-6)


class TestDispatchSeam:
    """The tracing double proves the hot path goes through the backend."""

    def test_softmax_dispatches_through_backend(self):
        X, y = _rng_problem()
        backend = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 3, backend=backend)
        assert backend.calls["asarray_data"] == 1
        backend.reset()
        w = np.zeros(obj.dim)
        obj.value(w)
        assert backend.calls["exp"] >= 1  # log-sum-exp ran through xp
        assert backend.calls["asarray"] >= 1  # check_weights ran through backend
        backend.reset()
        obj.gradient(w)
        assert backend.calls["exp"] >= 1
        backend.reset()
        obj.hvp(w, np.ones(obj.dim))
        assert backend.calls["sum"] >= 1

    def test_tracing_matches_numpy_bitwise(self):
        X, y = _rng_problem()
        w = np.random.default_rng(7).standard_normal((3 - 1) * X.shape[1]) * 0.1
        ref = SoftmaxCrossEntropy(X, y, 3).gradient(w)
        got = SoftmaxCrossEntropy(X, y, 3, backend=TracingBackend()).gradient(w)
        np.testing.assert_array_equal(got, ref)

    def test_predict_caches_converted_eval_matrix(self):
        # The per-epoch trace recorder calls predict(w, test.X) every epoch;
        # on non-NumPy backends the converted matrix must be cached so the
        # data is not re-transferred to the device each time.
        X, y = _rng_problem()
        backend = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 3, backend=backend)
        w = np.zeros(obj.dim)
        X_eval = X[:5].copy()
        backend.reset()
        first = obj.predict_proba(w, X_eval)
        converts = backend.calls["asarray_data"]
        assert converts == 1
        second = obj.predict_proba(w, X_eval)
        assert backend.calls["asarray_data"] == converts  # cache hit
        np.testing.assert_array_equal(first, second)
        # A different matrix object misses the single-entry cache.
        obj.predict_proba(w, X[:5].copy())
        assert backend.calls["asarray_data"] == converts + 1

    def test_predict_cache_enabled_on_numpy(self, monkeypatch):
        # NumPy converts for free, but the finiteness check and a float32
        # storage cast are not: a repeated X is checked and cast once.
        from repro.utils import validation

        checks = []
        check_array = validation.check_array
        monkeypatch.setattr(
            validation,
            "check_array",
            lambda X, **kw: checks.append(X) or check_array(X, **kw),
        )
        X, y = _rng_problem()
        obj = SoftmaxCrossEntropy(X, y, 3, precision="mixed")
        w = np.zeros(obj.dim)
        X_eval = X[:5].copy()
        checks.clear()
        first = obj.predict_proba(w, X_eval)
        assert obj._eval_matrix_cache[0] is X_eval
        cast = obj._eval_matrix_cache[1]
        assert cast.dtype == np.float32
        second = obj.predict_proba(w, X_eval)
        assert obj._eval_matrix_cache[1] is cast
        assert [c is X_eval for c in checks] == [True]
        np.testing.assert_array_equal(first, second)


class TestRegistry:
    def test_auto_falls_back_to_numpy_when_accelerators_missing(self):
        missing = [n for n in OPTIONAL_BACKENDS if not backend_available(n)]
        backend = get_backend("auto")
        if len(missing) == len(OPTIONAL_BACKENDS):
            assert isinstance(backend, NumpyBackend)
            assert backend.name == "numpy"
        else:  # pragma: no cover - machines with cupy/torch installed
            # An installed but CPU-only library must not displace numpy.
            if backend.name in OPTIONAL_BACKENDS:
                assert backend.is_accelerator()
            else:
                assert backend.name == "numpy"

    def test_unknown_backend_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("tpu")

    def test_missing_backend_raises_unavailable(self):
        for name in OPTIONAL_BACKENDS:
            if not backend_available(name):
                with pytest.raises(BackendUnavailableError):
                    get_backend(name)

    def test_available_backends_reports_numpy(self):
        availability = available_backends()
        assert availability["numpy"] is True

    def test_instance_passthrough_and_default(self):
        backend = TracingBackend()
        assert get_backend(backend) is backend
        assert default_backend().name == "numpy"

    def test_set_default_backend_roundtrip(self):
        try:
            chosen = set_default_backend("auto")
            assert default_backend() is chosen
        finally:
            set_default_backend("numpy")
        assert default_backend().name == "numpy"

    def test_infer_backend_numpy(self):
        assert infer_backend(np.ones(3)).name == "numpy"
        assert infer_backend([1.0, 2.0]).name == "numpy"


class TestEndToEndParity:
    """NewtonADMM.fit runs identically through the dispatch seam (and on any
    real optional backend) — the acceptance bar for the backend refactor."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_multiclass_gaussian(
            300, 10, 3, condition_number=5.0, class_separation=2.0, random_state=0
        )

    def _fit(self, dataset, backend):
        cluster = SimulatedCluster(dataset, 4, backend=backend, random_state=0)
        solver = NewtonADMM(lam=1e-4, max_epochs=5, record_accuracy=False)
        return solver.fit(cluster)

    def test_newton_admm_tracing_matches_numpy(self, dataset):
        reference = self._fit(dataset, None)
        backend = TracingBackend()
        traced = self._fit(dataset, backend)
        np.testing.assert_allclose(
            traced.final_w, reference.final_w, atol=1e-6, rtol=0
        )
        assert traced.records[-1].objective == pytest.approx(
            reference.records[-1].objective, abs=1e-10
        )
        # The per-worker x-updates must actually have dispatched through the
        # injected backend.
        assert backend.total_calls() > 0
        assert backend.calls["exp"] > 0

    @pytest.mark.parametrize(
        "backend_name",
        [
            pytest.param(
                name,
                marks=pytest.mark.skipif(
                    not backend_available(name), reason=f"{name} not installed"
                ),
            )
            for name in OPTIONAL_BACKENDS
        ],
    )
    def test_newton_admm_optional_backend_matches_numpy(self, dataset, backend_name):
        reference = self._fit(dataset, None)
        result = self._fit(dataset, backend_name)
        np.testing.assert_allclose(
            result.final_w, reference.final_w, atol=1e-6, rtol=1e-6
        )

    def test_cluster_describe_reports_backend(self, dataset):
        cluster = SimulatedCluster(dataset, 2, backend=TracingBackend(), random_state=0)
        assert cluster.describe()["backend"] == "tracing"


class TestBackendPropagation:
    """Backend inheritance through wrappers and into the baselines."""

    def test_regularizer_adopts_backend_through_wrapper_loss(self):
        from repro.objectives.base import RegularizedObjective, ScaledObjective
        from repro.objectives.regularizers import L2Regularizer

        X, y = _rng_problem()
        backend = TracingBackend()
        loss = ScaledObjective(SoftmaxCrossEntropy(X, y, 3, backend=backend), 2.0)
        reg = L2Regularizer(loss.dim, 1e-3)
        composite = RegularizedObjective(loss, reg)
        assert composite.backend is backend
        assert reg.backend is backend

    def test_sync_sgd_baseline_runs_on_injected_backend(self):
        from repro.baselines.sync_sgd import SynchronousSGD

        train = make_multiclass_gaussian(
            200, 8, 3, condition_number=5.0, class_separation=2.0, random_state=0
        )
        backend = TracingBackend()
        cluster = SimulatedCluster(train, 2, backend=backend, random_state=0)
        trace = SynchronousSGD(
            lam=1e-4, max_epochs=2, batch_size=32, record_accuracy=False
        ).fit(cluster)
        assert len(trace.records) == 2
        # The local mini-batch losses must have been built on the cluster's
        # backend, not silently on NumPy.
        for worker in cluster.workers:
            assert worker.state["local_mean_loss"].backend is backend


class TestHostInputValidation:
    """Host data (dense or sparse) keeps full check_array validation even
    though accelerator-native arrays are trusted."""

    @pytest.mark.parametrize("objective_name", sorted(OBJECTIVES))
    def test_sparse_nan_rejected(self, objective_name):
        X, y = _rng_problem(sparse=True)
        X = X.copy()
        X.data[0] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            OBJECTIVES[objective_name](X, y, None)

    def test_dense_nan_rejected(self):
        X, y = _rng_problem()
        X = X.copy()
        X[0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            SoftmaxCrossEntropy(X, y, 3)

    def test_integer_sparse_coerced_to_float(self):
        X = sp.csr_matrix(np.eye(6, dtype=np.int64))
        y = np.array([0, 1, 2, 0, 1, 2])
        obj = SoftmaxCrossEntropy(X, y, 3)
        assert obj.X.dtype == np.float64

    def test_integer_allreduce_still_sums_as_float(self):
        from repro.distributed.comm import Communicator
        from repro.distributed.engine import EventEngine
        from repro.distributed.network import infiniband_100g

        comm = Communicator(2, infiniband_100g(), EventEngine(2))
        total = comm.allreduce([np.array([1, 2]), np.array([0.5, 0.5])])
        np.testing.assert_allclose(total, [1.5, 2.5])
        assert total.dtype == np.float64

    def test_mixed_precision_allreduce_accumulates_in_float64(self):
        from repro.distributed.comm import Communicator
        from repro.distributed.engine import EventEngine
        from repro.distributed.network import infiniband_100g

        comm = Communicator(2, infiniband_100g(), EventEngine(2))
        total = comm.allreduce(
            [np.ones(2, dtype=np.float32), np.full(2, 1e-9, dtype=np.float64)]
        )
        assert total.dtype == np.float64
        np.testing.assert_allclose(total, [1.0 + 1e-9, 1.0 + 1e-9], rtol=0)

    def test_float32_host_data_stays_float32(self):
        X, y = _rng_problem()
        obj = SoftmaxCrossEntropy(X.astype(np.float32), y, 3)
        assert obj.X.dtype == np.float32
        assert obj._indicator.dtype == np.float32
        w0 = obj.initial_point()
        assert w0.dtype == np.float32
        assert obj.gradient(w0).dtype == np.float32

    def test_cg_accepts_bare_callable_returning_list(self):
        from repro.linalg.cg import conjugate_gradient

        result = conjugate_gradient(
            lambda v: list(2.0 * np.asarray(v)), np.ones(3), tol=1e-10, max_iter=10
        )
        assert result.converged
        np.testing.assert_allclose(result.x, 0.5 * np.ones(3))


class TestMixedPrecisionInterplay:
    """float32 weights against float64-validated data must not crash."""

    def test_hessian_operator_accepts_float32_weights(self):
        from repro.linalg.cg import conjugate_gradient
        from repro.linalg.operators import HessianOperator
        rng = np.random.default_rng(0)
        obj = BinaryLogistic(rng.standard_normal((30, 5)), rng.integers(0, 2, 30))
        w = np.zeros(obj.dim, dtype=np.float32)
        op = HessianOperator(obj, w)
        result = conjugate_gradient(op, -obj.gradient(w), tol=1e-8, max_iter=50)
        assert result.converged
        assert result.x.dtype == np.float64  # follows the objective's data

    def test_jacobi_preconditioner_usable_in_cg(self):
        from repro.linalg.cg import conjugate_gradient
        from repro.linalg.operators import HessianOperator
        from repro.linalg.preconditioners import make_preconditioner

        rng = np.random.default_rng(1)
        obj = BinaryLogistic(rng.standard_normal((40, 6)), rng.integers(0, 2, 40))
        w = np.zeros(obj.dim)
        prec = make_preconditioner("jacobi", obj, w, damping=1e-3, random_state=0)
        result = conjugate_gradient(
            HessianOperator(obj, w),
            -obj.gradient(w),
            preconditioner=prec,
            tol=1e-8,
            max_iter=50,
        )
        assert result.converged


class TestCLI:
    def test_backends_command_lists_numpy_default(self):
        from repro.harness.cli import main

        lines = []
        assert main(["backends"], print_fn=lines.append) == 0
        joined = "\n".join(lines)
        assert "numpy" in joined and "yes" in joined

    def test_run_accepts_backend_flag(self):
        from repro.harness.cli import build_parser

        args = build_parser().parse_args(
            ["run", "table1", "--backend", "auto", "--no-plot"]
        )
        assert args.backend == "auto"
