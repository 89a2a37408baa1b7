"""Precision modes for the compute pipeline.

The paper's kernels run fastest in single precision, but naive fp32
accumulation loses enough bits in the log-sum-exp and CG dot products to
perturb convergence.  Following the GPU-accelerated primal-learning recipe
(PAPERS.md), the library therefore distinguishes three modes:

``None`` (follow-data)
    The historical behaviour: the design matrix keeps whatever floating
    dtype it arrived with (float64 for fresh NumPy data) and every reduction
    runs in that dtype.  This is the bit-reproducible default.
``"fp32"``
    Host design matrices are cast to float32 at objective construction, so
    storage, GEMMs *and* reductions all run in single precision.
``"mixed"``
    Storage and GEMMs run in float32, but the log-sum-exp of the softmax and
    the dot products / norms inside CG accumulate in float64 (see
    :meth:`~repro.backend.base.ArrayBackend.dot_hp`).  This keeps the GEMM
    speed of fp32 while restoring the reduction accuracy that drives
    convergence — the documented tolerance is that a mixed-mode solve reaches
    the same final objective as fp64 within ``5e-4`` relative and the same
    final iterate within ``2e-3`` relative L2 (see ``docs/performance.md``;
    asserted in ``tests/test_precision.py``).  A float64 iterate may meet
    float32 storage: the softmax casts its small weight/direction block to
    float32 before each product and returns gradients and HVPs in float64.
    That is how Newton-ADMM's local x-update runs by default
    (:class:`~repro.admm.newton_admm.NewtonADMM` ``precision=None``): a
    float32 copy of each shard under float64 iterates, CG vectors and
    records.
``"fp64"``
    Explicitly promote host data to float64 (useful to force the reference
    behaviour on a float32 dataset).

A session-wide default (the CLI's ``--precision``) is resolved by
:class:`~repro.distributed.cluster.SimulatedCluster` and the objective
constructors whenever their ``precision`` argument is ``None``, mirroring the
``set_default_engine`` / ``set_default_faults`` pattern of the harness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: modes accepted by ``precision=`` arguments (``None`` = follow the data)
PRECISION_MODES = ("fp64", "fp32", "mixed")

_DEFAULT_PRECISION: Optional[str] = None


def set_default_precision(mode: Optional[str]) -> Optional[str]:
    """Set the session-wide default precision mode (the CLI's ``--precision``).

    ``None`` clears the default (follow-data behaviour).  Objectives and
    clusters constructed with ``precision=None`` resolve this value.
    """
    global _DEFAULT_PRECISION
    if mode is not None and mode not in PRECISION_MODES:
        raise ValueError(
            f"precision must be one of {PRECISION_MODES} or None, got {mode!r}"
        )
    _DEFAULT_PRECISION = mode
    return _DEFAULT_PRECISION


def default_precision() -> Optional[str]:
    return _DEFAULT_PRECISION


def resolve_precision(mode: Optional[str]) -> Optional[str]:
    """Validate ``mode``, resolving ``None`` to the session default."""
    if mode is None:
        return _DEFAULT_PRECISION
    if mode not in PRECISION_MODES:
        raise ValueError(
            f"precision must be one of {PRECISION_MODES} or None, got {mode!r}"
        )
    return mode


def storage_dtype(mode: Optional[str]):
    """The host storage dtype a precision mode implies (``None`` = keep)."""
    if mode in ("fp32", "mixed"):
        return np.float32
    if mode == "fp64":
        return np.float64
    return None


def apply_storage_precision(X, mode: Optional[str]):
    """Cast a *host* design matrix (dense ndarray or scipy sparse) to the
    storage dtype of ``mode``.

    Backend-native device arrays are returned unchanged — they were loaded at
    a deliberate dtype and a silent device-side cast would duplicate the
    matrix; pass data at the target dtype instead.
    """
    dtype = storage_dtype(mode)
    if dtype is None:
        return X
    import scipy.sparse as sp

    if isinstance(X, np.ndarray) or sp.issparse(X):
        if X.dtype != dtype:
            return X.astype(dtype)
    return X


def reduction_dtype(mode: Optional[str]):
    """The accumulation dtype for sensitive reductions (lse, CG dots)."""
    if mode == "mixed":
        return np.float64
    return None
