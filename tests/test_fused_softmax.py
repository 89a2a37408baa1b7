"""Fused softmax hot paths: the per-iterate forward cache and transfer audit.

Pins the perf contracts of the kernel-speed pass with
:class:`~repro.backend.testing.TracingBackend` operation counts rather than
wall-clock: one forward pass (logits GEMM + softmax) per *distinct iterate*
no matter how many value/gradient/HVP calls hit it, bit-identical results to
the uncached composed path, and exactly one device-to-host transfer per
``predict`` / ``predict_proba`` call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.testing import TracingBackend
from repro.objectives.base import RegularizedObjective
from repro.objectives.logistic import BinaryLogistic
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy

#: xp ufuncs only the softmax forward pass issues — their counts proxy
#: "number of forward passes" without depending on GEMM tracing.
FORWARD_OPS = ("exp", "log")


def _problem(n=90, p=7, c=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.integers(0, c, size=n)
    y[:c] = np.arange(c)
    return X, y


def _forward_count(backend):
    return sum(backend.calls[op] for op in FORWARD_OPS)


class TestPerIterateCache:
    def test_one_forward_pass_per_distinct_iterate(self):
        """value + gradient + many HVPs at one iterate: one forward pass."""
        X, y = _problem()
        bk = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 4, backend=bk)
        rng = np.random.default_rng(1)
        w = obj.check_weights(bk.asarray(rng.standard_normal(obj.dim) * 0.1))

        bk.reset()
        value, grad, hvp_op = obj.value_and_gradient_and_hvp_operator(w)
        after_fused = _forward_count(bk)
        assert after_fused > 0  # the forward pass did run

        for _ in range(4):
            hvp_op.matvec(rng.standard_normal(obj.dim))
        obj.value(w)
        obj.gradient(w)
        obj.hvp(w, rng.standard_normal(obj.dim))
        assert _forward_count(bk) == after_fused, (
            "repeated calls at a cached iterate recomputed the softmax forward"
        )

        # A distinct iterate invalidates the cache and pays one new forward.
        w2 = obj.check_weights(bk.asarray(rng.standard_normal(obj.dim) * 0.1))
        obj.gradient(w2)
        assert _forward_count(bk) > after_fused

    def test_fused_ops_strictly_fewer_than_composed(self):
        """The tentpole acceptance: fused value+gradient+HVP issues strictly
        fewer backend operations than the composed cache-busted calls."""
        X, y = _problem()
        rng = np.random.default_rng(2)
        vs = [rng.standard_normal(7 * 3) for _ in range(3)]

        bk_f = TracingBackend()
        fused_obj = SoftmaxCrossEntropy(X, y, 4, backend=bk_f)
        w = fused_obj.check_weights(
            bk_f.asarray(rng.standard_normal(fused_obj.dim) * 0.1)
        )
        bk_f.reset()
        _, _, hvp_op = fused_obj.value_and_gradient_and_hvp_operator(w)
        for v in vs:
            hvp_op.matvec(v)
        fused_ops = bk_f.total_calls()

        bk_c = TracingBackend()
        composed_obj = SoftmaxCrossEntropy(X, y, 4, backend=bk_c)
        wc = composed_obj.check_weights(bk_c.asarray(np.asarray(w)))
        bk_c.reset()
        composed_obj._iterate_cache = None
        composed_obj.value(wc)
        composed_obj._iterate_cache = None
        composed_obj.gradient(wc)
        for v in vs:
            composed_obj._iterate_cache = None
            composed_obj.hvp(wc, v)
        composed_ops = bk_c.total_calls()

        assert fused_ops < composed_ops

    def test_cached_results_bit_identical_to_fresh_objective(self):
        """The cache only skips recomputation — it may not change a bit."""
        X, y = _problem()
        rng = np.random.default_rng(3)
        cached = SoftmaxCrossEntropy(X, y, 4)
        fresh = SoftmaxCrossEntropy(X, y, 4)
        w = rng.standard_normal(cached.dim) * 0.1
        v = rng.standard_normal(cached.dim)

        # Warm the cache through every path, in value-first order.
        cv, cg = cached.value_and_gradient(w)
        ch = cached.hvp(w, v)
        # Fresh objective, separate calls, gradient-first order.
        fg = fresh.gradient(w)
        fh = fresh.hvp(w, v)
        fv = fresh.value(w)

        assert cv == fv
        np.testing.assert_array_equal(cg, fg)
        np.testing.assert_array_equal(ch, fh)

    def test_cache_invalidation_across_iterates(self):
        """Interleaved calls at alternating iterates stay correct."""
        X, y = _problem()
        rng = np.random.default_rng(4)
        obj = SoftmaxCrossEntropy(X, y, 4)
        ref = SoftmaxCrossEntropy(X, y, 4)
        w1 = rng.standard_normal(obj.dim) * 0.1
        w2 = rng.standard_normal(obj.dim) * 0.1
        for w in (w1, w2, w1, w2):
            np.testing.assert_array_equal(obj.gradient(w), ref.gradient(w))
            assert obj.value(w) == ref.value(w)

    def test_value_does_not_materialize_probabilities(self):
        """Line-search trials need log-sum-exp only; the (n, C-1) probability
        matrix must not be computed until a gradient or HVP asks for it."""
        X, y = _problem()
        bk = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 4, backend=bk)
        w = obj.check_weights(bk.asarray(np.zeros(obj.dim)))
        obj.value(w)
        assert "P" not in obj._iterate_cache
        obj.gradient(w)
        assert "P" in obj._iterate_cache

    @pytest.mark.parametrize("precision", ["fp64", "fp32", "mixed"])
    def test_predict_on_own_data_reuses_cached_logits(self, precision):
        """An epoch record predicts at the iterate it has just evaluated: on
        the objective's own data that costs no second logits GEMM, and the
        labels and probabilities are those of the explicit-``X`` path (on
        the matrix as the objective stores it)."""
        X, y = _problem()
        obj = SoftmaxCrossEntropy(X, y, 4, precision=precision)
        w = obj.check_weights(np.random.default_rng(7).standard_normal(obj.dim))
        expected = obj.predict(w, obj.X), obj.predict_proba(w, obj.X)

        obj.value_and_gradient(w)
        gemms = []
        compute = obj._logits
        obj._logits = lambda W: gemms.append(W) or compute(W)
        np.testing.assert_array_equal(obj.predict(w), expected[0])
        np.testing.assert_array_equal(obj.predict_proba(w), expected[1])
        assert gemms == []
        # A cold cache pays the GEMM in predict, through the cache, so what
        # follows at that iterate does not pay it again.
        w2 = obj.check_weights(w + 1.0)
        np.testing.assert_array_equal(obj.predict(w2), obj.predict(w2, obj.X))
        assert len(gemms) == 1
        obj.value(w2)
        assert len(gemms) == 1

    def test_wrapped_objective_shares_the_cache(self):
        """RegularizedObjective passes the same iterate object down, so the
        solver-visible wrapper chain still gets one forward pass."""
        X, y = _problem()
        bk = TracingBackend()
        loss = SoftmaxCrossEntropy(X, y, 4, backend=bk)
        obj = RegularizedObjective(loss, L2Regularizer(loss.dim, 1e-3))
        rng = np.random.default_rng(5)
        w = loss.check_weights(bk.asarray(rng.standard_normal(obj.dim) * 0.1))
        bk.reset()
        _, _, hvp_op = obj.value_and_gradient_and_hvp_operator(w)
        baseline = _forward_count(bk)
        hvp_op.matvec(rng.standard_normal(obj.dim))
        hvp_op.matvec(rng.standard_normal(obj.dim))
        assert _forward_count(bk) == baseline


class TestSingleTransferPredictions:
    """S2: prediction paths cross the device boundary exactly once."""

    def test_softmax_predict_one_transfer(self):
        X, y = _problem()
        bk = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 4, backend=bk)
        w = np.zeros(obj.dim)
        bk.reset()
        labels = obj.predict(w)
        assert bk.calls["to_numpy"] == 1
        assert labels.shape == (X.shape[0],) and labels.dtype == np.int64

    def test_softmax_predict_proba_one_transfer(self):
        X, y = _problem()
        bk = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 4, backend=bk)
        bk.reset()
        probs = obj.predict_proba(np.zeros(obj.dim))
        assert bk.calls["to_numpy"] == 1
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_predict_on_eval_matrix_one_transfer(self):
        X, y = _problem()
        X_eval, _ = _problem(n=30, seed=9)
        bk = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 4, backend=bk)
        obj.predict(np.zeros(obj.dim), X_eval)  # first call converts X_eval
        bk.reset()
        obj.predict(np.zeros(obj.dim), X_eval)  # cached eval matrix
        assert bk.calls["to_numpy"] == 1

    def test_logistic_predict_one_transfer(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 5))
        y = (rng.standard_normal(60) > 0).astype(np.int64)
        bk = TracingBackend()
        obj = BinaryLogistic(X, y, backend=bk)
        bk.reset()
        obj.predict(np.zeros(obj.dim))
        assert bk.calls["to_numpy"] == 1

    def test_predict_matches_host_argmax(self):
        """The device-side argmax returns the same labels the old host-side
        ``np.argmax(predict_proba(...))`` did."""
        X, y = _problem()
        obj = SoftmaxCrossEntropy(X, y, 4)
        rng = np.random.default_rng(7)
        w = rng.standard_normal(obj.dim) * 0.3
        np.testing.assert_array_equal(
            obj.predict(w), np.argmax(obj.predict_proba(w), axis=1)
        )
