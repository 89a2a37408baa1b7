"""Multiclass softmax / cross-entropy objective (paper §5 and §6).

The model has ``C - 1`` weight vectors of dimension ``p`` (the reference class
``C - 1`` has an implicit zero logit), so the optimization variable is the
flat vector ``w`` of dimension ``d = (C - 1) * p``.  All exponentials are
evaluated with the log-sum-exp shift of §6, so the objective never overflows.

The Hessian of this loss has the block structure
``H = sum_i (diag(p_i) - p_i p_i^T) ⊗ (x_i x_i^T)`` and is positive
semi-definite; it is never materialized — only Hessian-vector products are
exposed (two GEMMs of the same shape as the gradient's).

Per-iterate forward cache
-------------------------
The logits GEMM ``X @ W`` and its log-sum-exp / softmax are the shared prefix
of ``value``, ``gradient`` and every ``hvp`` at the same iterate, so they are
computed once per *distinct iterate object* and reused.  The cache holds a
single entry keyed on object identity (``w is cached``), exactly like the
``_eval_matrix`` cache: the identity-preserving ``backend.as_vector`` keeps
one iterate one object through wrapper chains, and callers must not mutate an
iterate in place between evaluations (no solver in this library does).  With
the cache warm, an HVP costs two GEMMs instead of three and
``value_and_gradient`` computes lse and probabilities in one fused pass
(:meth:`~repro.backend.base.ArrayBackend.fused_lse_probs`).

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
        # Single-entry per-iterate forward cache (see module docstring).
        self._iterate_cache: Optional[dict] = None

    # -- weight reshaping -------------------------------------------------
    def _as_matrix(self, w):
        """Flat ``(C-1)*p`` vector -> ``(p, C-1)`` weight matrix."""
        w = self.check_weights(w)
        return w.reshape(self.n_classes - 1, self.n_features).T

    def _as_vector(self, W):
        return W.T.ravel()

    def _logits(self, W):
        return self.X @ W

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
    def value(self, w) -> float:
        xp = self._backend.xp
        cache = self._forward(w, need_lse=True)
        logits = cache["logits_hp"] if self.precision == "mixed" else cache["logits"]
        correct = xp.sum(logits * self._indicator, axis=1)
        return self.scale * self._backend.to_float(xp.sum(cache["lse"] - correct))

    def gradient(self, w):
        cache = self._forward(w, need_probs=True)
        G = self.X.T @ (cache["P"] - self._indicator)
        return self.scale * self._as_vector(G)

    def value_and_gradient(self, w) -> Tuple[float, np.ndarray]:
        xp = self._backend.xp
        cache = self._forward(w, need_lse=True, need_probs=True)
        logits = cache["logits_hp"] if self.precision == "mixed" else cache["logits"]
        correct = xp.sum(logits * self._indicator, axis=1)
        value = self.scale * self._backend.to_float(xp.sum(cache["lse"] - correct))
        G = self.X.T @ (cache["P"] - self._indicator)
        return value, self.scale * self._as_vector(G)

    def _curvature_block(self, P, U, xp):
        """``T`` such that ``H v = scale * X.T @ T`` for ``U = X @ V``."""
        PU = P * U
        return PU - P * xp.sum(PU, axis=1, keepdims=True)

    def hvp(self, w, v):
        xp = self._backend.xp
        cache = self._forward(w, need_probs=True)
        v = self._backend.as_vector(v, self.dim, name="v")
        V = v.reshape(self.n_classes - 1, self.n_features).T
        U = self.X @ V
        out = self.X.T @ self._curvature_block(cache["P"], U, xp)
        return self.scale * self._as_vector(out)

    def hvp_mat(self, w, V):
        """Hessian applied to all ``s`` columns of ``V`` — two GEMMs total.

        Each column of ``V`` is a flat ``(C-1)*p`` direction; the columns'
        per-class weight matrices are laid side by side into one ``(p, s*c)``
        block so the forward and backward passes are single GEMMs of width
        ``s*c`` instead of ``s`` separate GEMMs of width ``c``.  The
        per-column results agree with ``hvp`` up to GEMM reassociation.
        """
        xp = self._backend.xp
        cache = self._forward(w, need_probs=True)
        V = self._backend.asarray(V)
        if V.ndim != 2 or V.shape[0] != self.dim:
            raise ValueError(
                f"V must have shape ({self.dim}, s), got {tuple(V.shape)}"
            )
        P = cache["P"]
        s = int(V.shape[1])
        c = self.n_classes - 1
        p = self.n_features
        # Column j of V reshaped to its (p, c) weight matrix occupies columns
        # [j*c, (j+1)*c) of the stacked block.
        Vstack = V.T.reshape(s * c, p).T
        U = self.X @ Vstack
        blocks = [
            self._curvature_block(P, U[:, j * c : (j + 1) * c], xp)
            for j in range(s)
        ]
        T = xp.hstack(blocks) if s > 1 else blocks[0]
        out = self.X.T @ T
        cols = [
            self._as_vector(out[:, j * c : (j + 1) * c]).reshape(-1, 1)
            for j in range(s)
        ]
        res = xp.hstack(cols) if s > 1 else cols[0]
        return self.scale * res

    def hvp_per_class(self, w, v):
        """Reference HVP issuing one GEMV per class column.

        This is the pre-batching formulation (a loop of ``(n, p) @ (p,)``
        products instead of one ``(n, p) @ (p, c)`` GEMM); it is kept as the
        benchmark baseline for ``BENCH_kernels.json`` and as an independent
        cross-check of :meth:`hvp` in tests.  Never on the hot path.
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
        """``X @ W``; on the objective's own data (``X is None``) the
        per-iterate forward cache's logits, which are that same product at
        every precision (``"mixed"`` caches the float32 GEMM it promotes)."""
        if X is None:
            return self._forward(w)["logits"]
        return self._eval_matrix(X) @ self._as_matrix(w)

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
