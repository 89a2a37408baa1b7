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
import scipy.sparse as sp

from repro.backend.testing import TracingBackend
from repro.objectives import softmax
from repro.objectives.base import RegularizedObjective
from repro.objectives.logistic import BinaryLogistic
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.newton_cg import NewtonCG

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

    def test_newton_step_reuses_the_line_search_forward_pass(self):
        """The line search hands back the array it last evaluated, so the
        value+gradient at the accepted point finds that trial's logits: a
        solve reads ``X`` for the start point and once per trial, not once
        more per iteration."""
        X, y = _problem()
        loss = SoftmaxCrossEntropy(X, y, 4)
        passes = []
        for name in ("_logits", "_forward_and_gradient"):
            inner = getattr(loss, name)
            setattr(loss, name, lambda a, inner=inner: passes.append(1) or inner(a))
        obj = RegularizedObjective(loss, L2Regularizer(loss.dim, 1e-3))
        result = NewtonCG(max_iterations=5).minimize(obj)
        assert result.n_iterations > 1
        assert len(passes) == 1 + result.info["total_line_search_evals"]

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


class _CountingArray(np.ndarray):
    """Counts the ``@`` products it takes part in: the operator goes to
    ``ndarray.__matmul__``, past the TracingBackend's namespace."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingArray.matmuls += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


#: relative tolerance for results that differ by the association of a row sum
TILE_RTOL = {"fp64": 1e-12, "fp32": 2e-5, "mixed": 2e-5}

#: ``TILE_BYTES`` for the 300x20 problem: 43 rows a tile (at every storage
#: dtype) with a ragged last tile, and one row a tile
SMALL_TILES = (7000, 1)


def _evaluate(obj, w, v):
    """Every kernel with a product with ``X``, each from a cold cache, as
    flat arrays."""
    out = {}
    for name, call in (
        ("value", lambda: obj.value(w)),
        ("gradient", lambda: obj.gradient(w)),
        ("value_and_gradient", lambda: obj.value_and_gradient(w)),
        ("hvp", lambda: obj.hvp(w, v)),
        ("predict_proba", lambda: obj.predict_proba(w)),
    ):
        obj._iterate_cache = None
        result = call()
        parts = result if isinstance(result, tuple) else (result,)
        out[name] = np.hstack([np.ravel(part) for part in parts])
    return out


class TestRowTiles:
    """One tile sequence under every product with ``X`` (``TILE_BYTES``
    patched small so a 300x20 problem spans several tiles)."""

    @staticmethod
    def _setup(seed=11):
        X, y = _problem(n=300, p=20, c=4, seed=seed)
        rng = np.random.default_rng(seed)
        dim = 20 * 3
        w = rng.standard_normal(dim) * 0.1
        return X, y, w, rng.standard_normal(dim)

    @pytest.mark.parametrize("tile_bytes", SMALL_TILES)
    @pytest.mark.parametrize("precision", ["fp64", "fp32", "mixed"])
    def test_tiled_results_match_single_tile(self, monkeypatch, precision, tile_bytes):
        X, y, w, v = self._setup()
        single = SoftmaxCrossEntropy(X, y, 4, precision=precision)
        assert len(single._tiles) == 1
        monkeypatch.setattr(softmax, "TILE_BYTES", tile_bytes)
        tiled = SoftmaxCrossEntropy(X, y, 4, precision=precision)
        rows = max(1, tile_bytes // (20 * 8))  # float64 rows at every dtype
        assert len(tiled._tiles) == -(-300 // rows) > 1
        last = tiled._tiles[-1][1]
        assert last.shape[0] == 300 - rows * (len(tiled._tiles) - 1) <= rows
        if tile_bytes > 1:
            assert last.shape[0] < rows  # ragged

        w, v = (a.astype(tiled.X.dtype) for a in (w, v))
        expected, got = _evaluate(single, w, v), _evaluate(tiled, w, v)
        rtol = TILE_RTOL[precision]
        for name in expected:
            scale = np.max(np.abs(expected[name]))
            np.testing.assert_allclose(
                got[name], expected[name], rtol=0, atol=rtol * scale, err_msg=name
            )
        np.testing.assert_array_equal(tiled.predict(w), single.predict(w))
        if precision == "fp64":
            np.testing.assert_allclose(
                tiled.hvp_per_class(w, v), got["hvp"], rtol=1e-10, atol=1e-13
            )

    @pytest.mark.parametrize("tile_bytes", SMALL_TILES)
    @pytest.mark.parametrize("precision", ["fp64", "fp32", "mixed"])
    def test_entry_points_agree_bitwise_within_a_tiling(
        self, monkeypatch, precision, tile_bytes
    ):
        """Same tiles in the same order everywhere: separate and fused, cold
        and warm calls are the same floating-point program."""
        monkeypatch.setattr(softmax, "TILE_BYTES", tile_bytes)
        X, y, w, v = self._setup()
        obj = SoftmaxCrossEntropy(X, y, 4, precision=precision)
        fresh = SoftmaxCrossEntropy(X, y, 4, precision=precision)
        assert len(obj._tiles) > 1
        w, v = w.astype(obj.X.dtype), v.astype(obj.X.dtype)

        value, grad = obj.value_and_gradient(w)  # cold: fused per tile
        warm_hvp = obj.hvp(w, v)
        assert fresh.value(w) == value  # cold: logits, then lse
        np.testing.assert_array_equal(fresh.gradient(w), grad)  # after value(w)
        fresh._iterate_cache = None
        np.testing.assert_array_equal(fresh.gradient(w), grad)  # cold
        fresh._iterate_cache = None
        np.testing.assert_array_equal(fresh.hvp(w, v), warm_hvp)  # cold HVP
        warm_value, warm_grad = fresh.value_and_gradient(w)  # warm: from the cache
        assert warm_value == value
        np.testing.assert_array_equal(warm_grad, grad)

    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    def test_cold_value_and_gradient_fills_the_cache_in_one_pass(
        self, monkeypatch, precision
    ):
        """2 products per tile for a cold value+gradient and per warm HVP; the
        cache the fused pass leaves serves HVPs and predictions with no
        further forward pass."""
        monkeypatch.setattr(softmax, "TILE_BYTES", 7000)
        X, y, w, v = self._setup()
        bk = TracingBackend()
        obj = SoftmaxCrossEntropy(X, y, 4, backend=bk, precision=precision)
        obj.X = obj.X.view(_CountingArray)
        obj._tiles = obj._row_tiles()
        tiles = len(obj._tiles)
        assert tiles > 1
        w = obj.check_weights(bk.asarray(w.astype(obj.X.dtype)))
        reference = SoftmaxCrossEntropy(X, y, 4, precision=precision)
        expected = reference._forward(np.asarray(w), need_lse=True, need_probs=True)

        bk.reset()
        _CountingArray.matmuls = 0
        obj.value_and_gradient(w)
        assert _CountingArray.matmuls == 2 * tiles
        assert bk.calls["fused_lse_probs"] == tiles
        cache = obj._iterate_cache
        assert set(cache) == set(expected) | {"G"}  # and the gradient block
        for key in set(expected) - {"w"}:
            assert cache[key].dtype == expected[key].dtype
            np.testing.assert_array_equal(cache[key], expected[key], err_msg=key)

        forward_ops = _forward_count(bk)
        for _ in range(3):
            obj.hvp(w, v.astype(obj.X.dtype))
        assert _CountingArray.matmuls == 2 * tiles + 3 * 2 * tiles
        obj.value(w)
        obj.gradient(w)  # the cached X.T @ (P - Y)
        assert _CountingArray.matmuls == 8 * tiles
        assert _forward_count(bk) == forward_ops
        obj.predict(w)  # its softmax runs on the cached logits
        assert _CountingArray.matmuls == 8 * tiles

    def test_one_tile_for_sparse_fortran_and_small_inputs(self, monkeypatch):
        X, y, *_ = self._setup()
        assert len(SoftmaxCrossEntropy(X, y, 4)._tiles) == 1  # rows >= n
        monkeypatch.setattr(softmax, "TILE_BYTES", 1)
        assert len(SoftmaxCrossEntropy(X, y, 4)._tiles) == 300
        for data in (sp.csr_matrix(X), np.asfortranarray(X)):
            obj = SoftmaxCrossEntropy(data, y, 4)
            assert len(obj._tiles) == 1 and obj._tiles[0][1] is obj.X

    @pytest.mark.parametrize("layout", ["csr", "fortran", "small"])
    def test_single_tile_inputs_are_the_whole_array_expressions(
        self, monkeypatch, layout
    ):
        """Inputs the tile rule leaves whole compute the literal ``X @ W`` and
        ``X.T @ T``, bit for bit (holds before the tile loop existed too)."""
        X, y, w, v = self._setup()
        if layout != "small":
            monkeypatch.setattr(softmax, "TILE_BYTES", 1, raising=False)
        data = {"csr": sp.csr_matrix, "fortran": np.asfortranarray, "small": np.asarray}[
            layout
        ](X)
        obj = SoftmaxCrossEntropy(data, y, 4, scale=1.0)
        if layout == "fortran":
            assert obj.X.flags.f_contiguous and not obj.X.flags.c_contiguous
        XM, W, V = obj.X, w.reshape(3, 20).T, v.reshape(3, 20).T
        logits = XM @ W
        np.testing.assert_array_equal(obj._forward(w)["logits"], logits)
        P = obj._forward(w, need_probs=True)["P"]
        G = XM.T @ (P - obj._indicator)
        np.testing.assert_array_equal(obj.gradient(w), G.T.ravel())
        obj._iterate_cache = None
        np.testing.assert_array_equal(obj.value_and_gradient(w)[1], G.T.ravel())
        PU = P * (XM @ V)
        H = XM.T @ (PU - P * np.sum(PU, axis=1, keepdims=True))
        np.testing.assert_array_equal(obj.hvp(w, v), H.T.ravel())
