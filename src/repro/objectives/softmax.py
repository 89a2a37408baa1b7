"""Multiclass softmax / cross-entropy objective (paper §5 and §6).

The model has ``C - 1`` weight vectors of dimension ``p`` (the reference class
``C - 1`` has an implicit zero logit), so the optimization variable is the
flat vector ``w`` of dimension ``d = (C - 1) * p``.  All exponentials are
evaluated with the log-sum-exp shift of §6, so the objective never overflows.

The Hessian of this loss has the block structure
``H = sum_i (diag(p_i) - p_i p_i^T) ⊗ (x_i x_i^T)`` and is positive
semi-definite; it is never materialized — only Hessian-vector products are
exposed (one pass over ``X``: per row tile, two GEMMs of the gradient's shape).

Row tiles
---------
Every product with ``X`` runs over one sequence of row tiles (``_tiles``),
and a kernel that needs both ``X_t @ ·`` and ``X_t.T @ ·`` does them back to
back while the tile is in L2, so an HVP and a cold ``value_and_gradient``
read the shard once instead of twice.  Sparse, non-C-contiguous and
accelerator-resident matrices, and any matrix no larger than one tile, are a
single tile, for which each kernel is exactly the whole-array expression;
across several tiles only the association of the row sum differs.

Per-iterate forward cache
-------------------------
The logits ``X @ W`` and their log-sum-exp / softmax are the shared prefix
of ``value``, ``gradient`` and every ``hvp`` at the same iterate, so they are
computed once per *distinct iterate object* and reused.  The cache holds a
single entry keyed on object identity (``w is cached``), exactly like the
``_eval_matrix`` cache: the identity-preserving ``backend.as_vector`` keeps
one iterate one object through wrapper chains, and callers must not mutate an
iterate in place between evaluations (no solver in this library does).  With
the cache warm, an HVP costs one pass over ``X`` instead of two; a cold
``value_and_gradient`` costs one as well, computing lse and probabilities per
tile in one fused kernel
(:meth:`~repro.backend.base.ArrayBackend.fused_lse_probs`), and the gradient
block ``X.T @ (P - Y)`` it computes stays in the cache as well.

Every product with ``X`` runs in the storage dtype: a float64 iterate or
direction meeting float32 storage is cast as a small ``(p, C-1)`` block first,
and gradients and HVPs come back in the iterate's dtype.

All kernels run on the configured :mod:`repro.backend` (NumPy by default;
CuPy / Torch move the GEMMs to the GPU); predictions are always returned as
host NumPy arrays for the metrics layer with exactly one device-to-host
transfer per call.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend import BackendLike, apply_storage_precision, get_backend, resolve_precision
from repro.objectives.base import (
    Objective,
    ScaleLike,
    data_float_dtype,
    resolve_scale,
    validate_design_matrix,
)
from repro.objectives.numerics import (
    full_class_probabilities,
    log_sum_exp,
    softmax_probabilities,
)
from repro.utils.flops import (
    softmax_gradient_flops,
    softmax_hvp_flops,
    softmax_objective_flops,
    softmax_value_and_gradient_flops,
)
from repro.utils.validation import check_labels

#: Bytes of a float64 row tile of ``X``; a tile of any storage dtype holds
#: the same rows, ``TILE_BYTES // (8 * n_features)``.  Measured on a 4000x784
#: shard (one BLAS thread): a warm fp64 HVP takes 5.1-5.6 ms anywhere from
#: 256 to 768 KiB (41-125 rows), against 9-10 ms untiled and from 1 MiB
#: (167 rows) on, where a tile no longer survives in L2 between its two
#: products.  512 KiB is the middle of that flat range and half of the
#: smallest L2 assumed (1 MiB per core).  A float32 tile falls off the same
#: cliff at the same 167 rows (3.6-5.5 ms against 2.3-3.6 ms at 83-125
#: rows), so it keeps the float64 row count at half the bytes;
#: docs/performance.md has both tables.
TILE_BYTES = 512 * 1024


class SoftmaxCrossEntropy(Objective):
    """Cross-entropy loss for linear multiclass classification.

    Parameters
    ----------
    X:
        Design matrix ``(n_samples, n_features)`` — dense or CSR.
    y:
        Integer labels in ``{0, ..., n_classes - 1}``; class ``n_classes - 1``
        is the reference class with an implicit zero logit.
    n_classes:
        Number of classes ``C`` (inferred from ``y`` if omitted).
    scale:
        ``"mean"`` (default), ``"sum"``, or an explicit float multiplier; see
        :mod:`repro.objectives.base`.
    backend:
        Array backend name or instance (``None`` -> NumPy); the design matrix
        and the cached indicator move to the backend once, at construction.
    precision:
        ``None`` (follow the data's dtype — the bit-reproducible default),
        ``"fp64"``, ``"fp32"``, or ``"mixed"`` (float32 storage and GEMMs,
        float64 log-sum-exp); see :mod:`repro.backend.precision`.  ``None``
        resolves the session default set by ``set_default_precision``.
    """

    def __init__(
        self,
        X,
        y,
        n_classes: Optional[int] = None,
        *,
        scale: ScaleLike = "mean",
        backend: BackendLike = None,
        precision: Optional[str] = None,
    ):
        self._backend = get_backend(backend)
        self.precision = resolve_precision(precision)
        X = apply_storage_precision(X, self.precision)
        X = validate_design_matrix(X, self._backend)
        self.y, self.n_classes = check_labels(
            y, n_samples=X.shape[0], n_classes=n_classes
        )
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        self.X = self._backend.asarray_data(X)
        self.n_features = int(self.X.shape[1])
        self.dim = (self.n_classes - 1) * self.n_features
        self.scale = resolve_scale(scale, self.X.shape[0])
        # One-hot indicator over the non-reference classes, cached because it
        # is reused by every gradient evaluation.
        n = self.X.shape[0]
        c = self.n_classes - 1
        indicator = np.zeros((n, c))  # repro-lint: ignore[RPR001] host-side by contract
        mask = self.y < c
        indicator[np.flatnonzero(mask), self.y[mask]] = 1.0  # repro-lint: ignore[RPR001] host-side by contract
        # Follow the data's floating dtype so float32 problems stay float32.
        self._indicator = self._backend.asarray(
            indicator, dtype=data_float_dtype(self.X)
        )
        self._tiles = self._row_tiles()
        # Single-entry per-iterate forward cache (see module docstring).
        self._iterate_cache: Optional[dict] = None

    # -- row tiles ----------------------------------------------------------
    def _row_tiles(self):
        """``(rows, X[rows])`` per tile of ``TILE_BYTES // (8 * n_features)``
        rows (at most ``TILE_BYTES`` of ``X``).

        One tile ``(slice(None), X)`` where slicing rows would copy (sparse),
        where a row block is not a contiguous run of memory, or on an
        accelerator, where a launch per tile costs more than the pass saves.
        """
        X, n = self.X, self.X.shape[0]
        flags = getattr(X, "flags", None)
        tiled = flags is not None and flags.c_contiguous and not (
            self._backend.is_sparse(X) or self._backend.is_accelerator()
        )
        rows = max(1, TILE_BYTES // (self.n_features * 8)) if tiled else n
        if rows >= n:
            return [(slice(None), X)]
        return [(slice(r, r + rows), X[r : r + rows]) for r in range(0, n, rows)]

    def _join(self, parts):
        """Per-tile row blocks as one array (the block itself for one tile)."""
        return parts[0] if len(parts) == 1 else self._backend.xp.concatenate(parts)

    def _xt_sum(self, block):
        """``sum_t X_t.T @ block(rows_t, X_t)`` over the row tiles.

        ``block`` may itself multiply by ``X_t``: both products then touch
        the tile while it is cache-resident.  The first tile's product starts
        the accumulator, so one tile gives exactly ``X.T @ block(:, X)``.
        """
        terms = (X_t.T @ block(rows, X_t) for rows, X_t in self._tiles)
        out = next(terms)
        for term in terms:
            out += term
        return out

    # -- weight reshaping -------------------------------------------------
    def _as_matrix(self, w):
        """Flat ``(C-1)*p`` vector -> ``(p, C-1)`` weight matrix."""
        w = self.check_weights(w)
        return w.reshape(self.n_classes - 1, self.n_features).T

    def _as_vector(self, W):
        return W.T.ravel()

    def _logits(self, W):
        W = self._at_storage(W)
        return self._join([X_t @ W for _, X_t in self._tiles])

    # -- per-iterate forward cache ----------------------------------------
    def _forward(self, w, *, need_lse: bool = False, need_probs: bool = False):
        """Forward quantities at iterate ``w``, computed at most once each.

        Returns the cache dict with ``logits`` always present, ``lse`` when
        ``need_lse`` and ``P`` (probabilities, at storage precision) when
        ``need_probs``.  When both are requested and neither is cached yet,
        they come from one fused kernel.  In ``"mixed"`` mode the lse and
        probabilities are computed from float64-promoted logits; ``P`` is
        demoted back to float32 so the backward GEMMs stay single-precision.
        """
        w = self.check_weights(w)
        cache = self._iterate_cache
        if cache is None or cache["w"] is not w:
            cache = {"w": w}
            self._iterate_cache = cache
        xp = self._backend.xp
        if "logits" not in cache:
            cache["logits"] = self._logits(
                w.reshape(self.n_classes - 1, self.n_features).T
            )
        mixed = self.precision == "mixed"
        if mixed and "logits_hp" not in cache:
            cache["logits_hp"] = self._backend.promote_fp64(cache["logits"])
        red = cache["logits_hp"] if mixed else cache["logits"]
        if need_lse and need_probs and "lse" not in cache and "P" not in cache:
            lse, P = self._backend.fused_lse_probs(red)
            cache["lse"] = lse
            cache["P"] = self._backend.demote_fp32(P) if mixed else P
        if need_lse and "lse" not in cache:
            cache["lse"] = log_sum_exp(red, include_zero=True, xp=xp)
        if need_probs and "P" not in cache:
            P = softmax_probabilities(red, include_zero=True, xp=xp)
            cache["P"] = self._backend.demote_fp32(P) if mixed else P
        return cache

    # -- objective API -----------------------------------------------------
    def _loss(self, cache) -> float:
        xp = self._backend.xp
        logits = cache["logits_hp"] if self.precision == "mixed" else cache["logits"]
        correct = xp.sum(logits * self._indicator, axis=1)
        return self.scale * self._backend.to_float(xp.sum(cache["lse"] - correct))

    def _gradient(self, cache):
        """The loss gradient at the cached iterate; ``X.T @ (P - Y)`` is
        computed at most once per iterate and kept in the cache as ``G``."""
        if "G" not in cache:
            D = cache["P"] - self._indicator
            cache["G"] = self._xt_sum(lambda rows, X_t: D[rows])
        return self.scale * self._as_vector(self._promoted(cache["G"], cache["w"]))

    def _forward_and_gradient(self, w):
        """Cold-cache forward pass and ``X.T @ (P - Y)`` in one pass over ``X``.

        Per tile: logits, fused lse + probabilities, gradient contribution.
        Leaves the forward cache as ``_forward(w, need_lse=True,
        need_probs=True)`` followed by ``_gradient`` would.
        """
        W = self._at_storage(w.reshape(self.n_classes - 1, self.n_features).T)
        mixed = self.precision == "mixed"
        parts = []

        def block(rows, X_t):
            logits = X_t @ W
            lse, P = self._backend.fused_lse_probs(
                self._backend.promote_fp64(logits) if mixed else logits
            )
            if mixed:
                P = self._backend.demote_fp32(P)
            parts.append((logits, lse, P))
            return P - self._indicator[rows]

        G = self._xt_sum(block)
        logits, lse, P = (self._join(column) for column in zip(*parts))
        cache = {"w": w, "logits": logits, "lse": lse, "P": P, "G": G}
        if mixed:
            cache["logits_hp"] = self._backend.promote_fp64(logits)
        self._iterate_cache = cache
        return cache

    def value(self, w) -> float:
        return self._loss(self._forward(w, need_lse=True))

    def gradient(self, w):
        return self._gradient(self._forward(w, need_probs=True))

    def value_and_gradient(self, w) -> Tuple[float, np.ndarray]:
        w = self.check_weights(w)
        cache = self._iterate_cache
        if cache is None or cache["w"] is not w:
            cache = self._forward_and_gradient(w)
        else:
            cache = self._forward(w, need_lse=True, need_probs=True)
        return self._loss(cache), self._gradient(cache)

    def _curvature_block(self, P, U, xp):
        """``T`` such that ``H v = scale * X.T @ T`` for ``U = X @ V``."""
        PU = P * U
        return PU - P * xp.sum(PU, axis=1, keepdims=True)

    def hvp(self, w, v):
        xp = self._backend.xp
        cache = self._forward(w, need_probs=True)
        v = self._backend.as_vector(v, self.dim, name="v")
        V = self._at_storage(v.reshape(self.n_classes - 1, self.n_features).T)
        P = cache["P"]
        out = self._xt_sum(
            lambda rows, X_t: self._curvature_block(P[rows], X_t @ V, xp)
        )
        return self.scale * self._as_vector(self._promoted(out, v))

    def hvp_per_class(self, w, v):
        """Reference HVP issuing one GEMV per class column.

        This is the pre-batching formulation (a loop of ``(n, p) @ (p,)``
        products instead of one ``(n, p) @ (p, c)`` GEMM); it is kept only as
        an independent cross-check of :meth:`hvp` in tests.  Never on the hot
        path.
        """
        xp = self._backend.xp
        cache = self._forward(w, need_probs=True)
        v = self._backend.as_vector(v, self.dim, name="v")
        V = v.reshape(self.n_classes - 1, self.n_features).T
        c = self.n_classes - 1
        U = xp.hstack([(self.X @ V[:, k]).reshape(-1, 1) for k in range(c)])
        T = self._curvature_block(cache["P"], U, xp)
        out = xp.hstack([(self.X.T @ T[:, k]).reshape(-1, 1) for k in range(c)])
        return self.scale * self._as_vector(out)

    # -- prediction --------------------------------------------------------
    def _predict_logits(self, w, X):
        """``X @ W`` in the storage dtype; on the objective's own data
        (``X is None``) the per-iterate forward cache's logits, which are
        that same product at every precision (``"mixed"`` caches the float32
        GEMM it promotes)."""
        if X is None:
            return self._forward(w)["logits"]
        return self._eval_matrix(X) @ self._at_storage(self._as_matrix(w))

    def predict_proba(self, w, X=None) -> np.ndarray:
        """Class probabilities ``(n, C)`` under weights ``w`` for ``X``
        (returned on the host; one device-to-host transfer)."""
        xp = self._backend.xp
        logits = self._predict_logits(w, X)
        return self._backend.to_numpy(full_class_probabilities(logits, xp=xp))

    def predict(self, w, X=None) -> np.ndarray:
        """Most likely class per sample (host array).

        The argmax runs on the backend so only the ``(n,)`` index vector
        crosses the device boundary, not the full ``(n, C)`` probability
        matrix.
        """
        xp = self._backend.xp
        probs = full_class_probabilities(self._predict_logits(w, X), xp=xp)
        idx = self._backend.to_numpy(xp.argmax(probs, axis=1))
        return np.asarray(idx, dtype=np.int64)

    # -- cost model ----------------------------------------------------------
    def flops_value(self) -> float:
        return softmax_objective_flops(self.X.shape[0], self.n_features, self.n_classes)

    def flops_gradient(self) -> float:
        return softmax_gradient_flops(self.X.shape[0], self.n_features, self.n_classes)

    def flops_value_and_gradient(self) -> float:
        return softmax_value_and_gradient_flops(
            self.X.shape[0], self.n_features, self.n_classes
        )

    def flops_hvp(self) -> float:
        return softmax_hvp_flops(self.X.shape[0], self.n_features, self.n_classes)

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])

    def minibatch(self, indices: np.ndarray) -> "SoftmaxCrossEntropy":
        """A new objective over a row subset, keeping this objective's scale
        semantics per-sample (i.e. the minibatch objective is a mean over the
        batch when this objective is a mean over its samples)."""
        indices = np.asarray(indices, dtype=np.int64)
        return SoftmaxCrossEntropy(
            self._rows(indices), self.y[indices], self.n_classes, scale="mean",
            backend=self._backend, precision=self.precision,
        )
