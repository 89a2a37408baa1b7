"""PyTorch backend (optional, CPU or CUDA).

Torch's functional API differs from NumPy's in small but fatal ways for
generic code (``dim``/``keepdim`` keywords, ``Tensor.max`` returning a
``(values, indices)`` pair), so this backend exposes ``xp`` as a thin adapter
implementing exactly the NumPy-style subset the hot paths call.  Dense design
matrices become device tensors; scipy CSR matrices become a pair of sparse-CSR
tensors (the matrix and its transpose, both built once at load time) wrapped
so that ``X @ W`` and ``X.T @ M`` work like their scipy counterparts.

Like the CuPy backend, importing torch is deferred to construction time and a
missing install raises :class:`BackendUnavailableError`.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend, BackendUnavailableError
from repro.utils.validation import issparse


class _TorchNamespace:
    """NumPy-flavoured adapter over :mod:`torch` (the subset the library uses)."""

    def __init__(self, torch, device):
        self._torch = torch
        self._device = device

    def asarray(self, x, dtype=None):
        return self._torch.as_tensor(x, dtype=dtype, device=self._device)

    def atleast_2d(self, x):
        return self._torch.atleast_2d(x)

    def exp(self, x):
        return self._torch.exp(x)

    def log(self, x):
        return self._torch.log(x)

    def log1p(self, x):
        return self._torch.log1p(x)

    def sqrt(self, x):
        return self._torch.sqrt(x)

    def abs(self, x):
        return self._torch.abs(x)

    def sign(self, x):
        return self._torch.sign(x)

    def maximum(self, x, y):
        if not self._torch.is_tensor(y):
            y = self._torch.as_tensor(y, dtype=x.dtype, device=x.device)
        if not self._torch.is_tensor(x):
            x = self._torch.as_tensor(x, dtype=y.dtype, device=y.device)
        return self._torch.maximum(x, y)

    def clip(self, x, lo, hi):
        return self._torch.clamp(x, min=lo, max=hi)

    def where(self, cond, a, b):
        return self._torch.where(cond, a, b)

    def isfinite(self, x):
        return self._torch.isfinite(x)

    def sum(self, x, axis=None, keepdims=False):
        if axis is None:
            return x.sum()
        return x.sum(dim=axis, keepdim=keepdims)

    def max(self, x, axis=None):
        if axis is None:
            return x.max()
        return self._torch.amax(x, dim=axis)

    def mean(self, x, axis=None):
        if axis is None:
            return x.mean()
        return x.mean(dim=axis)

    def argmax(self, x, axis=None):
        return self._torch.argmax(x, dim=axis)

    def hstack(self, arrays):
        return self._torch.hstack(list(arrays))

    def zeros_like(self, x):
        return self._torch.zeros_like(x)


class _TorchCSR:
    """Sparse design matrix for the torch backend.

    Holds the CSR tensor and its transpose (also CSR) so both ``X @ W`` and
    ``X.T @ M`` are single sparse-dense matmuls with no per-call conversion.
    """

    def __init__(self, torch, csr, csr_t):
        self._torch = torch
        self._csr = csr
        self._csr_t = csr_t
        self.shape = tuple(csr.shape)
        #: values dtype, exposed so initial_point()/aux caches can follow it
        self.dtype = csr.dtype

    def __matmul__(self, other):
        if other.ndim == 1:
            return (self._csr @ other.reshape(-1, 1)).reshape(-1)
        return self._csr @ other

    @property
    def T(self) -> "_TorchCSR":
        return _TorchCSR(self._torch, self._csr_t, self._csr)


class TorchBackend(ArrayBackend):
    """Backend over :mod:`torch` tensors on ``device`` (default: CUDA if present)."""

    name = "torch"

    def __init__(self, device=None):
        try:
            import torch
        except Exception as exc:
            raise BackendUnavailableError(
                "the 'torch' backend requires PyTorch "
                "(pip install 'repro-newton-admm[gpu-torch]')"
            ) from exc
        self._torch = torch
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = torch.device(device)
        self._xp = _TorchNamespace(torch, self.device)
        # Fused log-sum-exp + softmax, JIT-compiled on first use.  Compilation
        # is attempted lazily so environments without a working inductor
        # toolchain (missing compiler, unsupported device) silently keep the
        # composed reference kernel.
        self._fused_lse_probs = None
        self._fusion_mode = "composed"

    @property
    def xp(self):
        return self._xp

    def asarray(self, x, dtype=None):
        torch = self._torch
        t = torch.as_tensor(
            np.asarray(x) if not torch.is_tensor(x) else x,
            dtype=dtype,
            device=self.device,
        )
        if not t.is_floating_point():
            t = t.to(torch.float64)
        return t

    def to_numpy(self, x) -> np.ndarray:
        if isinstance(x, _TorchCSR):
            x = x._csr.to_dense()
        return x.detach().cpu().numpy()

    def asarray_data(self, X):
        torch = self._torch
        if isinstance(X, _TorchCSR):
            return X
        if issparse(X):
            csr = X.tocsr()
            csr_t = csr.T.tocsr()
            return _TorchCSR(
                torch,
                self._to_sparse_csr(csr),
                self._to_sparse_csr(csr_t),
            )
        return self.asarray(X)

    def _to_sparse_csr(self, csr):
        torch = self._torch
        # Preserve the host matrix's floating dtype (float32 stays float32);
        # only non-float data is promoted.
        data = csr.data if csr.data.dtype.kind == "f" else csr.data.astype(np.float64)
        return torch.sparse_csr_tensor(
            torch.as_tensor(csr.indptr, dtype=torch.int64),
            torch.as_tensor(csr.indices, dtype=torch.int64),
            torch.as_tensor(data),
            size=csr.shape,
            device=self.device,
        )

    def zeros(self, shape, dtype=None):
        return self._torch.zeros(
            shape, dtype=dtype or self._torch.float64, device=self.device
        )

    def norm(self, v) -> float:
        return float(self._torch.linalg.vector_norm(v))

    def dot(self, a, b) -> float:
        return float((a * b).sum())

    def dot_hp(self, a, b) -> float:
        # ``Tensor.sum`` takes a torch dtype, not a NumPy one.
        return float((a * b).sum(dtype=self._torch.float64))

    def norm_hp(self, v) -> float:
        return float((v * v).sum(dtype=self._torch.float64).sqrt())

    def promote_fp64(self, x):
        return x if x.dtype == self._torch.float64 else x.double()

    def demote_fp32(self, x):
        return x if x.dtype == self._torch.float32 else x.float()

    def fused_lse_probs(self, logits):
        if self._fused_lse_probs is None:
            self._fused_lse_probs = self._build_fused_lse_probs()
        try:
            return self._fused_lse_probs(logits)
        except Exception:
            # A compiled kernel can fail at run time on shapes/devices the
            # trace did not cover; drop to the composed path permanently.
            self._fused_lse_probs = self._composed_lse_probs
            self._fusion_mode = "composed"
            return self._composed_lse_probs(logits)

    def _composed_lse_probs(self, logits):
        return super().fused_lse_probs(logits)

    def _build_fused_lse_probs(self):
        torch = self._torch

        def lse_probs(logits):
            m = torch.clamp(torch.amax(logits, dim=1), min=0.0)
            shifted = torch.exp(logits - m[:, None])
            denom = torch.exp(-m) + shifted.sum(dim=1)
            return m + torch.log(denom), shifted / denom[:, None]

        try:
            compiled = torch.compile(lse_probs)
            # Trigger compilation now so failures fall back immediately
            # instead of on the first hot-path call.
            probe = torch.zeros((2, 2), device=self.device)
            compiled(probe)
            self._fusion_mode = "fused"
            return compiled
        except Exception:
            self._fusion_mode = "composed"
            return self._composed_lse_probs

    def fusion_info(self) -> dict:
        if self._fused_lse_probs is None:
            self._fused_lse_probs = self._build_fused_lse_probs()
        return {"lse_probs": self._fusion_mode}

    def any_nonzero(self, v) -> bool:
        return bool((v != 0).any())

    def is_native(self, x) -> bool:
        return self._torch.is_tensor(x) or isinstance(x, _TorchCSR)

    def is_sparse(self, X) -> bool:
        return isinstance(X, _TorchCSR) or (
            self._torch.is_tensor(X) and X.layout != self._torch.strided
        )

    def is_accelerator(self) -> bool:
        return self.device.type == "cuda"

    def default_device_model(self):
        from repro.distributed.device import cpu_xeon_gold, tesla_p100

        return tesla_p100() if self.device.type == "cuda" else cpu_xeon_gold()
