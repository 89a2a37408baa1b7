"""Micro-benchmarks of the numerical kernels every solver is built on.

Unlike the figure benchmarks (which run a whole experiment once), these use
pytest-benchmark's normal repeated timing, giving a stable baseline for
performance-regression tracking of the hot paths: softmax value/gradient/HVP,
CG, and one Newton-ADMM epoch.

The speedup checks at the bottom assert that each optimized kernel computes
the same result as its baseline (fused vs. composed forward pass, cached vs.
uncached HVP, batched vs. per-class HVP, mixed vs. fp64 precision) and print
the measured ratio; the fused path's backend-op budget is counted, not timed.
End-to-end timings live in ``python3 -m bench``.
"""

import time

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.backend.testing import TracingBackend
from repro.datasets.registry import mnist_like
from repro.distributed.cluster import SimulatedCluster
from repro.linalg.cg import conjugate_gradient
from repro.linalg.operators import HessianOperator
from repro.objectives.base import RegularizedObjective
from repro.objectives.numerics import softmax_probabilities
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy


@pytest.fixture(scope="module")
def softmax_problem():
    train, _ = mnist_like(n_train=2000, n_test=100, random_state=0)
    loss = SoftmaxCrossEntropy(train.X, train.y, train.n_classes)
    objective = RegularizedObjective(loss, L2Regularizer(loss.dim, 1e-5))
    rng = np.random.default_rng(0)
    w = rng.standard_normal(objective.dim) * 0.01
    v = rng.standard_normal(objective.dim)
    return objective, w, v


def test_softmax_value(benchmark, softmax_problem):
    objective, w, _ = softmax_problem
    value = benchmark(objective.value, w)
    assert np.isfinite(value)


def test_softmax_gradient(benchmark, softmax_problem):
    objective, w, _ = softmax_problem
    grad = benchmark(objective.gradient, w)
    assert grad.shape == w.shape


def test_softmax_hvp(benchmark, softmax_problem):
    objective, w, v = softmax_problem
    hv = benchmark(objective.hvp, w, v)
    assert hv.shape == w.shape


def test_cg_ten_iterations(benchmark, softmax_problem):
    objective, w, _ = softmax_problem
    grad = objective.gradient(w)
    op = HessianOperator(objective, w)
    result = benchmark(
        conjugate_gradient, op, -grad, tol=1e-4, max_iter=10
    )
    assert result.n_iterations <= 10


def _direct_numpy_gradient(X, indicator, scale, n_classes, n_features):
    """Hand-written softmax gradient with direct ``np.*`` calls — the
    pre-backend code path, used as the dispatch-overhead baseline."""

    def gradient(w):
        W = w.reshape(n_classes - 1, n_features).T
        logits = np.asarray(X @ W)
        P = softmax_probabilities(logits, include_zero=True)
        G = X.T @ (P - indicator)
        return scale * np.asarray(G).T.ravel()

    return gradient


def _best_seconds(fn, arg, *, repeats=15):
    """Best-of-N timing — the standard microbenchmark statistic, far less
    sensitive to scheduler noise on shared CI runners than mean/median."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return float(min(times))


def test_backend_dispatch_no_regression(benchmark, softmax_problem):
    """The NumPy path through the backend abstraction must match direct
    ``np.*`` calls — the backend seam may not tax the hot loop."""
    objective, w, _ = softmax_problem
    loss = objective.loss
    direct = _direct_numpy_gradient(
        loss.X, loss._indicator, loss.scale, loss.n_classes, loss.n_features
    )
    np.testing.assert_allclose(direct(w), loss.gradient(w), atol=1e-12)

    # Warm up both paths, then compare best-of-N.  Best-of timing of two
    # back-to-back measurements cancels runner load, and the 2x bound only
    # trips on a structural regression (e.g. a per-call host copy sneaking
    # into the seam), not on scheduler jitter.  A single over-threshold
    # reading is re-measured once so one noisy-neighbor episode on a shared
    # CI runner cannot fail the build; a real regression reproduces.
    _best_seconds(direct, w, repeats=3)
    _best_seconds(loss.gradient, w, repeats=3)
    ratio = float("inf")
    for _ in range(2):
        t_direct = _best_seconds(direct, w)
        t_threaded = _best_seconds(loss.gradient, w)
        ratio = t_threaded / t_direct
        if ratio < 2.0:
            break
    print(f"backend dispatch overhead: {ratio:.3f}x (threaded/direct)")
    assert ratio < 2.0, (
        f"backend-threaded gradient is {ratio:.2f}x the direct np.* gradient "
        "(reproduced across two measurement rounds)"
    )

    grad = benchmark(loss.gradient, w)
    assert grad.shape == w.shape


# ---------------------------------------------------------------------------
# Kernel-speedup checks: equal results, measured ratio printed.
# ---------------------------------------------------------------------------


def _timed_pair(baseline, optimized, arg, *, repeats=15):
    """Warm both paths, then best-of-N each; returns (t_base, t_opt)."""
    _best_seconds(baseline, arg, repeats=3)
    _best_seconds(optimized, arg, repeats=3)
    return (
        _best_seconds(baseline, arg, repeats=repeats),
        _best_seconds(optimized, arg, repeats=repeats),
    )


def test_fused_value_and_gradient_speedup(softmax_problem):
    """Fused value+gradient (shared forward pass) vs. the pre-cache composed
    path that recomputes logits for the value and again for the gradient."""
    objective, w, _ = softmax_problem
    loss = objective.loss

    def composed(w):
        loss._iterate_cache = None
        v = objective.value(w)
        loss._iterate_cache = None
        return v, objective.gradient(w)

    def fused(w):
        loss._iterate_cache = None
        return objective.value_and_gradient(w)

    v_c, g_c = composed(w)
    v_f, g_f = fused(w)
    assert v_f == v_c
    np.testing.assert_array_equal(g_f, g_c)

    t_composed, t_fused = _timed_pair(composed, fused, w)
    speedup = t_composed / t_fused
    print(f"fused value+gradient speedup: {speedup:.3f}x")


def test_cached_hvp_speedup(softmax_problem):
    """An HVP at an iterate whose probabilities are cached (2 GEMMs) vs. a
    cold HVP that must redo the forward pass (3 GEMMs + softmax)."""
    objective, w, v = softmax_problem
    loss = objective.loss

    def cold(v):
        loss._iterate_cache = None
        return objective.hvp(w, v)

    def warm(v):
        return objective.hvp(w, v)

    np.testing.assert_array_equal(cold(v), warm(v))
    t_cold, t_warm = _timed_pair(cold, warm, v)
    speedup = t_cold / t_warm
    print(f"cached-iterate HVP speedup: {speedup:.3f}x")


def test_batched_hvp_speedup(softmax_problem):
    """``hvp`` (one class-batched GEMM pair) vs. the per-class GEMV loop."""
    objective, w, _ = softmax_problem
    loss = objective.loss
    rng = np.random.default_rng(2)
    v = rng.standard_normal(objective.dim)

    def per_class(v):
        return loss.hvp_per_class(w, v)

    def batched(v):
        return loss.hvp(w, v)

    np.testing.assert_allclose(per_class(v), batched(v), rtol=1e-10, atol=1e-12)
    t_loop, t_batched = _timed_pair(per_class, batched, v)
    speedup = t_loop / t_batched
    print(f"batched HVP speedup over per-class GEMVs: {speedup:.3f}x")


def test_mixed_precision_speedup():
    """Mixed-precision gradient (fp32 GEMMs, fp64 reductions) vs. full fp64."""
    train, _ = mnist_like(n_train=2000, n_test=100, random_state=0)
    obj64 = SoftmaxCrossEntropy(train.X, train.y, train.n_classes)
    objmx = SoftmaxCrossEntropy(
        train.X, train.y, train.n_classes, precision="mixed"
    )
    rng = np.random.default_rng(0)
    w64 = rng.standard_normal(obj64.dim) * 0.01
    wmx = w64.astype(np.float32)

    def fp64(_):
        obj64._iterate_cache = None
        return obj64.value_and_gradient(w64)

    def mixed(_):
        objmx._iterate_cache = None
        return objmx.value_and_gradient(wmx)

    v64, _ = fp64(None)
    vmx, gmx = mixed(None)
    assert gmx.dtype == np.float32
    assert abs(vmx - v64) <= 5e-5 * max(abs(v64), 1.0)

    t64, tmx = _timed_pair(fp64, mixed, None)
    speedup = t64 / tmx
    print(f"mixed-precision value+gradient speedup: {speedup:.3f}x")


def test_fused_path_op_budget():
    """The fused value+gradient+HVP path must issue strictly fewer backend
    operations than the composed calls — counted, not timed, so this holds on
    any runner."""
    rng = np.random.default_rng(0)
    n, p, k = 120, 16, 6
    X = rng.standard_normal((n, p))
    y = rng.integers(0, k, size=n)
    n_hvps = 3
    vs = [rng.standard_normal(p * (k - 1)) for _ in range(n_hvps)]

    def run_composed(backend, obj):
        w = obj.check_weights(backend.asarray(rng.standard_normal(obj.dim) * 0.1))
        backend.reset()
        obj._iterate_cache = None
        obj.value(w)
        obj._iterate_cache = None
        obj.gradient(w)
        for v in vs:
            obj._iterate_cache = None
            obj.hvp(w, v)
        return backend.total_calls()

    def run_fused(backend, obj):
        w = obj.check_weights(backend.asarray(rng.standard_normal(obj.dim) * 0.1))
        backend.reset()
        _, _, hvp_op = obj.value_and_gradient_and_hvp_operator(w)
        for v in vs:
            hvp_op.matvec(v)
        return backend.total_calls()

    bk_c = TracingBackend()
    composed_ops = run_composed(bk_c, SoftmaxCrossEntropy(X, y, k, backend=bk_c))
    bk_f = TracingBackend()
    fused_ops = run_fused(bk_f, SoftmaxCrossEntropy(X, y, k, backend=bk_f))
    print(f"op budget: fused={fused_ops}, composed={composed_ops}")
    assert fused_ops < composed_ops


def test_newton_admm_single_epoch(benchmark):
    train, _ = mnist_like(n_train=1000, n_test=100, random_state=0)

    def one_epoch():
        cluster = SimulatedCluster(train, 4, random_state=0)
        return NewtonADMM(lam=1e-5, max_epochs=1, record_accuracy=False).fit(cluster)

    trace = benchmark.pedantic(one_epoch, rounds=3, iterations=1)
    assert trace.n_epochs == 1
