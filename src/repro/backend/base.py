"""The array-backend protocol.

Every compute layer of this library (objectives -> linalg -> solvers -> ADMM)
is written against :class:`ArrayBackend` instead of calling ``numpy``
directly.  A backend bundles:

* ``xp`` — a NumPy-compatible array namespace (``numpy`` itself, ``cupy``, or
  an adapter around ``torch``) providing the ufuncs and reductions the hot
  paths use;
* conversion helpers (``asarray`` / ``as_vector`` / ``asarray_data`` /
  ``to_numpy`` / ``to_float``) that move data across the host/device boundary
  exactly once, at API boundaries;
* a :meth:`default_device_model` hook so the simulated cluster's cost
  accounting keys off where the arrays actually live.

Inside hot loops only *array methods and operators* (``@``, ``+``, ``.T``,
``.reshape``, ``.ravel()``, ``.sum(...)`` via ``xp``) are used — these are the
intersection of the NumPy, CuPy and Torch APIs, so a single code path serves
every backend with zero dispatch overhead on the NumPy default (``xp`` *is*
the ``numpy`` module there).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional

import numpy as np


class BackendUnavailableError(ImportError):
    """Raised when a requested backend's library is not importable."""


class ArrayBackend(ABC):
    """Abstract device/array backend.

    Concrete implementations: :class:`~repro.backend.numpy_backend.NumpyBackend`
    (always available, zero overhead), CuPy and Torch backends (optional,
    imported lazily), and :class:`~repro.backend.testing.TracingBackend`
    (a NumPy-semantics double that records dispatch for tests).
    """

    #: registry name (``"numpy"``, ``"cupy"``, ``"torch"``, ...)
    name: str = "abstract"

    # -- namespace ---------------------------------------------------------
    @property
    @abstractmethod
    def xp(self) -> Any:
        """NumPy-compatible namespace used for ufuncs and reductions."""

    # -- conversions -------------------------------------------------------
    @abstractmethod
    def asarray(self, x, dtype=None):
        """Convert ``x`` to a native array of this backend (device transfer)."""

    @abstractmethod
    def to_numpy(self, x) -> np.ndarray:
        """Copy a native array back to a host :class:`numpy.ndarray`."""

    @abstractmethod
    def asarray_data(self, X):
        """Convert a design matrix (dense or CSR) to its native representation.

        Dense inputs become 2-D device arrays; scipy CSR inputs stay sparse in
        the backend's CSR format.  The returned object supports ``X @ W``,
        ``X.T @ M``, ``X.shape`` and (for minibatching) row indexing.
        """

    def to_float(self, x) -> float:
        """Python float from a scalar / 0-d array."""
        return float(x)

    def as_vector(self, v, dim: Optional[int] = None, *, name: str = "vector"):
        """Native 1-D floating vector, optionally validated against ``dim``.

        Integer inputs are promoted to the backend's default float; float32 /
        float64 inputs keep their dtype (no silent up- or down-casting).

        An input that is already a native 1-D float vector is returned *as
        the same object* (``ravel`` is only applied to non-1-D inputs).  The
        iterate-identity caches in :mod:`repro.objectives` rely on this: the
        same iterate flowing through a wrapper chain
        (``Regularized -> Counting -> Softmax``) must keep its identity, so
        ``value_and_gradient`` followed by ``hvp`` on one iterate reuses the
        cached logits instead of recomputing them.
        """
        v = self.asarray(v)
        if getattr(v, "ndim", None) != 1:
            v = v.ravel()
        if dim is not None and v.shape[0] != dim:
            raise ValueError(f"{name} has length {v.shape[0]}, expected {dim}")
        return v

    # -- allocation --------------------------------------------------------
    @abstractmethod
    def zeros(self, shape, dtype=None):
        """Native zero-filled array."""

    # -- reductions used outside xp ---------------------------------------
    def norm(self, v) -> float:
        """Euclidean norm as a Python float."""
        return float(self.xp.sqrt((v * v).sum()))

    def dot(self, a, b) -> float:
        """Inner product as a Python float."""
        return float((a * b).sum())

    def any_nonzero(self, v) -> bool:
        """Whether any entry of ``v`` is non-zero."""
        return bool((v != 0).any())

    # -- high-precision reductions (``precision="mixed"``) ------------------
    def dot_hp(self, a, b) -> float:
        """Inner product accumulated in float64 regardless of input dtype.

        The ``precision="mixed"`` pipeline stores vectors in float32 but runs
        the CG recurrence scalars through this method, so the coefficients
        keep ~15 significant digits while the GEMMs stay single-precision.
        """
        return float((a * b).sum(dtype=np.float64))

    def norm_hp(self, v) -> float:
        """Euclidean norm with float64 accumulation (see :meth:`dot_hp`)."""
        return float(np.sqrt((v * v).sum(dtype=np.float64)))

    def promote_fp64(self, x):
        """``x`` as a float64 array (no copy when already float64).

        Used by the mixed-precision softmax to run the log-sum-exp reduction
        in double precision over single-precision logits.
        """
        if getattr(x, "dtype", None) == np.float64:
            return x
        return x.astype(np.float64)

    def demote_fp32(self, x):
        """``x`` as a float32 array (no copy when already float32).

        Inverse of :meth:`promote_fp64`: the mixed-precision softmax computes
        probabilities from float64-promoted logits, then demotes them so the
        backward GEMMs stay single-precision.
        """
        if getattr(x, "dtype", None) == np.float32:
            return x
        return x.astype(np.float32)

    # -- fused kernels ------------------------------------------------------
    def fused_lse_probs(self, logits):
        """Row-wise ``(log_sum_exp, softmax_probabilities)`` in one pass.

        The softmax hot path calls this once per distinct iterate; value,
        gradient and every HVP of that iterate then reuse the outputs.  The
        default implementation is the composed NumPy-reference kernel
        (:func:`repro.objectives.numerics.lse_and_probabilities`), which
        runs on any ``xp`` namespace; accelerator backends may override it
        with a single fused kernel (``torch.compile`` / ``cupy.fuse``) whose
        outputs match the reference up to floating-point reassociation.

        Always computed with the implicit zero reference logit
        (``include_zero=True``) — that is the only variant on the hot path.
        """
        from repro.objectives.numerics import lse_and_probabilities

        return lse_and_probabilities(logits, include_zero=True, xp=self.xp)

    def fusion_info(self) -> dict:
        """How each fusable kernel is implemented on this backend.

        Maps kernel name to ``"fused"`` (single compiled kernel) or
        ``"composed"`` (reference implementation from separate ufuncs).
        ``docs/performance.md`` renders this as the availability matrix.
        """
        return {"lse_probs": "composed"}

    # -- classification ----------------------------------------------------
    @abstractmethod
    def is_native(self, x) -> bool:
        """Whether ``x`` is already an array of this backend (no transfer)."""

    def is_sparse(self, X) -> bool:
        """Whether ``X`` is a sparse matrix in this backend's representation."""
        return False

    def is_accelerator(self) -> bool:
        """Whether this backend's arrays live on an accelerator device.

        ``get_backend("auto")`` only selects backends that report ``True`` —
        an importable but CPU-bound library (e.g. CPU-only torch) must not
        displace the zero-overhead NumPy default.
        """
        return False

    # -- randomness (host-seeded for cross-backend determinism) ------------
    def standard_normal(self, shape, seed=None, *, dtype=None):
        """Standard-normal sample, generated on the host for determinism
        across backends, then transferred.  ``seed`` may be an int or an
        existing :class:`numpy.random.Generator` (passed through)."""
        rng = np.random.default_rng(seed)
        return self.asarray(rng.standard_normal(shape), dtype=dtype)

    def rademacher(self, shape, seed=None, *, dtype=None):
        """±1 sample (Hessian-diagonal probes), host-seeded like
        :meth:`standard_normal`."""
        rng = np.random.default_rng(seed)
        return self.asarray(rng.choice([-1.0, 1.0], size=shape), dtype=dtype)

    # -- cost accounting ---------------------------------------------------
    def default_device_model(self):
        """The :class:`~repro.distributed.device.DeviceModel` matching where
        this backend's arrays live.

        The NumPy default returns the paper's Tesla P100 — the simulation
        stands in for the GPU cluster while computing on the host — whereas
        accelerator backends report the device they actually execute on.
        """
        from repro.distributed.device import tesla_p100

        return tesla_p100()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
