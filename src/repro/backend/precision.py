"""Precision modes for the compute pipeline.

The paper's kernels run fastest in single precision, but naive fp32
accumulation loses enough bits in the log-sum-exp and CG dot products to
perturb convergence.  Following the GPU-accelerated primal-learning recipe
(PAPERS.md) there are three modes.  The storage precision is the data's: a
:class:`~repro.distributed.cluster.SimulatedCluster` stores each shard once,
in its mode's storage dtype, and every solver and epoch record reads it.

``"mixed"`` (the cluster default)
    Float32 storage and GEMMs; float64 iterates (``initial_point``),
    gradients, HVPs, log-sum-exp and CG scalars (see
    :meth:`~repro.backend.base.ArrayBackend.dot_hp`).  The softmax and the
    logistic loss cast the small weight/direction block to float32 before
    each product with ``X``.  A mixed solve reaches the fp64 one's final
    objective within ``5e-4`` relative and its final iterate within
    ``2e-3`` relative L2 (``docs/performance.md``; asserted in
    ``tests/test_precision.py``).
``"fp64"``
    Float64 throughout: the reference path.
``"fp32"``
    Float32 storage, GEMMs, reductions *and* iterates.

A lone objective with ``precision=None`` follows its data's dtype, unless a
session default (the CLI's ``--precision``, mirroring ``set_default_engine``)
is set; a cluster without either resolves to ``"mixed"``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import issparse

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
    if isinstance(X, np.ndarray) or issparse(X):
        if X.dtype != dtype:
            return X.astype(dtype)
    return X


def reduction_dtype(mode: Optional[str]):
    """The accumulation dtype for sensitive reductions (lse, CG dots)."""
    if mode == "mixed":
        return np.float64
    return None
