"""Binary logistic regression objective.

Kept alongside :class:`~repro.objectives.softmax.SoftmaxCrossEntropy` because
binary problems (HIGGS) admit a ``p``-dimensional parameterization with a
cheaper Hessian-vector product.  Like the softmax objective it computes on a
configurable :mod:`repro.backend`, and its products with ``X`` run in the
storage dtype: a float64 iterate or direction meeting float32 storage is cast
first, and margins, gradients and HVPs come back in the iterate's dtype.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend import (
    BackendLike,
    apply_storage_precision,
    get_backend,
    resolve_precision,
)
from repro.objectives.base import (
    Objective,
    ScaleLike,
    data_float_dtype,
    resolve_scale,
    validate_design_matrix,
)
from repro.objectives.numerics import log1p_exp, sigmoid
from repro.utils.flops import gemv_flops
from repro.utils.validation import check_labels


class BinaryLogistic(Objective):
    """Logistic loss ``sum_i log(1 + exp(x_i @ w)) - y_i * (x_i @ w)``.

    Labels are ``{0, 1}``; the decision rule is ``sigmoid(x @ w) > 0.5``.
    """

    def __init__(
        self,
        X,
        y,
        *,
        scale: ScaleLike = "mean",
        backend: BackendLike = None,
        precision: Optional[str] = None,
    ):
        self._backend = get_backend(backend)
        self.precision = resolve_precision(precision)
        X = apply_storage_precision(X, self.precision)
        X = validate_design_matrix(X, self._backend)
        self.y, n_classes = check_labels(y, n_samples=X.shape[0], n_classes=2)
        if n_classes != 2:
            raise ValueError("BinaryLogistic requires exactly two classes")
        self.X = self._backend.asarray_data(X)
        self.n_features = int(self.X.shape[1])
        self.dim = self.n_features
        self.scale = resolve_scale(scale, self.X.shape[0])
        self._y_float = self._backend.asarray(
            self.y.astype(np.float64), dtype=data_float_dtype(self.X)
        )

    def _margins(self, w, X=None):
        """``X @ w`` (default ``X``: the objective's own) in the storage
        dtype, returned in ``w``'s dtype."""
        X = self.X if X is None else X
        return self._promoted((X @ self._at_storage(w)).ravel(), w)

    def _xt(self, r, like):
        """``X.T @ r`` in the storage dtype, returned in ``like``'s dtype."""
        return self._promoted((self.X.T @ self._at_storage(r)).ravel(), like)

    def value(self, w) -> float:
        xp = self._backend.xp
        w = self.check_weights(w)
        z = self._margins(w)
        return self.scale * self._backend.to_float(
            xp.sum(log1p_exp(z, xp=xp) - self._y_float * z)
        )

    def gradient(self, w):
        xp = self._backend.xp
        w = self.check_weights(w)
        z = self._margins(w)
        residual = sigmoid(z, xp=xp) - self._y_float
        return self.scale * self._xt(residual, w)

    def value_and_gradient(self, w) -> Tuple[float, np.ndarray]:
        xp = self._backend.xp
        w = self.check_weights(w)
        z = self._margins(w)
        value = self.scale * self._backend.to_float(
            xp.sum(log1p_exp(z, xp=xp) - self._y_float * z)
        )
        residual = sigmoid(z, xp=xp) - self._y_float
        grad = self.scale * self._xt(residual, w)
        return value, grad

    def hvp(self, w, v):
        xp = self._backend.xp
        w = self.check_weights(w)
        v = self._backend.as_vector(v, self.dim, name="v")
        z = self._margins(w)
        s = sigmoid(z, xp=xp)
        d = s * (1.0 - s)
        Xv = self._margins(v)
        return self.scale * self._xt(d * Xv, v)

    def minibatch(self, indices: np.ndarray) -> "BinaryLogistic":
        """A new objective over a row subset (mean-scaled over the batch)."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = self._rows(indices)
        return BinaryLogistic(
            rows, self.y[indices], scale="mean", backend=self._backend,
            precision=self.precision,
        )

    def predict_proba(self, w, X=None) -> np.ndarray:
        """Probability of class 1 for each sample (host array)."""
        xp = self._backend.xp
        w = self.check_weights(w)
        z = self._margins(w, None if X is None else self._eval_matrix(X))
        return self._backend.to_numpy(sigmoid(z, xp=xp))

    def predict(self, w, X=None) -> np.ndarray:
        return (self.predict_proba(w, X) >= 0.5).astype(np.int64)

    def flops_value(self) -> float:
        n, p = self.X.shape
        return gemv_flops(n, p) + 12.0 * n

    def flops_gradient(self) -> float:
        n, p = self.X.shape
        return 2.0 * gemv_flops(n, p) + 12.0 * n

    def flops_hvp(self) -> float:
        n, p = self.X.shape
        return 2.0 * gemv_flops(n, p) + 4.0 * n

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])
