"""CuPy GPU backend (optional).

CuPy mirrors the NumPy API closely enough that ``xp`` is the ``cupy`` module
itself and sparse matrices go through ``cupyx.scipy.sparse`` — the same code
path the NumPy backend executes runs unmodified on the GPU.

The import happens lazily inside the constructor so merely *registering* the
backend (or running ``get_backend("auto")``) never requires CUDA; a missing
or broken CuPy install raises :class:`BackendUnavailableError`, which the
registry turns into a graceful fallback.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend, BackendUnavailableError
from repro.utils.validation import issparse


class CupyBackend(ArrayBackend):
    """Device-memory backend over :mod:`cupy` + :mod:`cupyx.scipy.sparse`."""

    name = "cupy"

    def __init__(self):
        try:
            import cupy
            import cupyx.scipy.sparse as cupy_sparse
        except Exception as exc:  # pragma: no cover - requires CUDA machine
            raise BackendUnavailableError(
                "the 'cupy' backend requires CuPy with a working CUDA runtime "
                "(pip install 'repro-newton-admm[gpu-cupy]')"
            ) from exc
        self._cupy = cupy
        self._sparse = cupy_sparse
        # ``cupy.fuse`` only supports a single reduction per kernel, so the
        # full lse+softmax cannot be one kernel; the elementwise shift+exp
        # stage can be, and is compiled lazily with a composed fallback.
        self._fused_shift_exp = None
        self._fusion_mode = "composed"

    @property
    def xp(self):
        return self._cupy

    def asarray(self, x, dtype=None):
        x = self._cupy.asarray(x, dtype=dtype)
        if x.dtype.kind != "f":
            x = x.astype(self._cupy.float64)
        return x

    def to_numpy(self, x) -> np.ndarray:
        if self.is_sparse(x):
            return np.asarray(x.get().todense())
        return self._cupy.asnumpy(x)

    def asarray_data(self, X):
        if issparse(X):
            return self._sparse.csr_matrix(X.tocsr())
        if self.is_sparse(X):
            return X.tocsr()
        return self.asarray(X)

    def zeros(self, shape, dtype=None):
        return self._cupy.zeros(shape, dtype=dtype or self._cupy.float64)

    def norm(self, v) -> float:
        return float(self._cupy.linalg.norm(v))

    def dot(self, a, b) -> float:
        return float(a @ b)

    def any_nonzero(self, v) -> bool:
        return bool(self._cupy.any(v))

    def is_native(self, x) -> bool:
        return isinstance(x, self._cupy.ndarray) or self.is_sparse(x)

    def is_sparse(self, X) -> bool:
        return self._sparse.issparse(X)

    def is_accelerator(self) -> bool:
        return True  # constructing this backend requires a CUDA runtime

    def fused_lse_probs(self, logits):
        cupy = self._cupy
        if self._fused_shift_exp is None:
            self._build_fused_shift_exp()
        if self._fusion_mode != "partial":
            return super().fused_lse_probs(logits)
        try:
            logits = cupy.atleast_2d(logits)
            m = cupy.maximum(cupy.max(logits, axis=1), 0.0)
            shifted = self._fused_shift_exp(logits, m[:, None])
            denom = cupy.exp(-m) + cupy.sum(shifted, axis=1)
            return m + cupy.log(denom), shifted / denom[:, None]
        except Exception:  # pragma: no cover - device-specific JIT failure
            self._fusion_mode = "composed"
            return super().fused_lse_probs(logits)

    def _build_fused_shift_exp(self):
        cupy = self._cupy
        try:
            @cupy.fuse()
            def shift_exp(logits, m):
                return cupy.exp(logits - m)

            # Compile eagerly so a broken JIT toolchain falls back once, here.
            shift_exp(cupy.zeros((2, 2)), cupy.zeros((2, 1)))
            self._fused_shift_exp = shift_exp
            self._fusion_mode = "partial"
        except Exception:  # pragma: no cover - requires CUDA machine
            self._fused_shift_exp = False
            self._fusion_mode = "composed"

    def fusion_info(self) -> dict:
        if self._fused_shift_exp is None:
            self._build_fused_shift_exp()
        return {"lse_probs": self._fusion_mode}
