"""Input validation helpers shared across the library.

These mirror the defensive checks a production numerical library performs at
its public API boundary; internal hot loops assume validated inputs.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple

import numpy as np


def issparse(x) -> bool:
    """``scipy.sparse.issparse(x)`` without importing scipy: nothing is a CSR
    matrix unless :mod:`scipy.sparse` was imported to build it, so a dense
    process never pays for the import (about 16 MB and 0.2 s)."""
    sp = sys.modules.get("scipy.sparse")
    return sp is not None and sp.issparse(x)


def check_array(
    X,
    *,
    name: str = "X",
    ndim: int = 2,
    dtype=np.float64,
    allow_sparse: bool = False,
    ensure_finite: bool = True,
):
    """Validate and coerce an array-like input.

    Parameters
    ----------
    X:
        Array-like (or scipy sparse matrix when ``allow_sparse``).
    name:
        Name used in error messages.
    ndim:
        Required number of dimensions for dense inputs.
    dtype:
        Target floating dtype.
    allow_sparse:
        Accept CSR/CSC matrices (converted to CSR).
    ensure_finite:
        Reject NaN/Inf entries.

    Returns
    -------
    numpy.ndarray or scipy.sparse.csr_matrix
    """
    if issparse(X):
        if not allow_sparse:
            raise TypeError(f"{name} must be a dense array, got a sparse matrix")
        X = X.tocsr().astype(dtype, copy=False)
        if ensure_finite and not np.all(np.isfinite(X.data)):
            raise ValueError(f"{name} contains NaN or Inf values")
        return X
    X = np.asarray(X, dtype=dtype)
    if X.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got ndim={X.ndim}")
    if ensure_finite and not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains NaN or Inf values")
    return X


def check_labels(
    y, *, n_samples: Optional[int] = None, n_classes: Optional[int] = None
) -> Tuple[np.ndarray, int]:
    """Validate integer class labels in ``{0, ..., C-1}``.

    Returns
    -------
    (labels, n_classes):
        Labels as an ``int64`` vector and the (possibly inferred) class count.
    """
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be a 1-D array, got ndim={y.ndim}")
    if y.size == 0:
        raise ValueError("labels must be non-empty")
    if not np.issubdtype(y.dtype, np.integer):
        y_int = y.astype(np.int64)
        if not np.allclose(y, y_int):
            raise ValueError("labels must be integers")
        y = y_int
    else:
        y = y.astype(np.int64)
    if n_samples is not None and y.shape[0] != n_samples:
        raise ValueError(
            f"labels length {y.shape[0]} does not match number of samples {n_samples}"
        )
    y_min = int(y.min())
    y_max = int(y.max())
    if y_min < 0:
        raise ValueError(f"labels must be non-negative, found {y_min}")
    inferred = y_max + 1
    if n_classes is None:
        n_classes = max(inferred, 2)
    elif y_max >= n_classes:
        raise ValueError(
            f"label {y_max} out of range for n_classes={n_classes}"
        )
    return y, int(n_classes)


def check_positive(value, *, name: str, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite scalar."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value, *, name: str, inclusive: bool = False) -> float:
    """Validate a scalar in (0, 1), or [0, 1] when ``inclusive``."""
    value = float(value)
    lo_ok = value >= 0 if inclusive else value > 0
    hi_ok = value <= 1 if inclusive else value < 1
    if not (lo_ok and hi_ok):
        interval = "[0, 1]" if inclusive else "(0, 1)"
        raise ValueError(f"{name} must lie in {interval}, got {value}")
    return value


def check_in_range(
    value, *, name: str, low: float, high: float, inclusive: bool = True
) -> float:
    """Validate that a scalar lies in ``[low, high]`` (or ``(low, high)``)."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value
