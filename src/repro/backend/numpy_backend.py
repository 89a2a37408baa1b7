"""The default NumPy backend — always available, zero dispatch overhead.

``xp`` is literally the :mod:`numpy` module and ``asarray_data`` keeps scipy
CSR matrices as-is, so code threaded through this backend executes the exact
same BLAS/sparse kernels as the pre-backend library did.
"""

from __future__ import annotations


import numpy as np

from repro.backend.base import ArrayBackend
from repro.utils.validation import issparse


class NumpyBackend(ArrayBackend):
    """Host-memory backend over :mod:`numpy` + :mod:`scipy.sparse`."""

    name = "numpy"

    @property
    def xp(self):
        return np

    def asarray(self, x, dtype=None):
        x = np.asarray(x, dtype=dtype)
        if x.dtype.kind != "f":
            x = x.astype(np.float64)
        return x

    def to_numpy(self, x) -> np.ndarray:
        return np.asarray(x)

    def asarray_data(self, X):
        if issparse(X):
            return X.tocsr()
        return self.asarray(X)

    def zeros(self, shape, dtype=None):
        return np.zeros(shape, dtype=dtype or np.float64)

    def norm(self, v) -> float:
        return float(np.linalg.norm(v))

    def dot(self, a, b) -> float:
        return float(a @ b)

    def any_nonzero(self, v) -> bool:
        return bool(np.any(v))

    def is_native(self, x) -> bool:
        return isinstance(x, np.ndarray) or issparse(x)

    def is_sparse(self, X) -> bool:
        return issparse(X)
