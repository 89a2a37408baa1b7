"""Synthetic dataset generators with controllable conditioning.

The reproduction replaces the paper's proprietary / large datasets with
synthetic stand-ins.  The key property the paper's analysis relies on is the
*conditioning* of the resulting classification problem (HIGGS: well
conditioned; CIFAR-10: ill conditioned), which we control through the spread
of feature scales and inter-feature correlation.
"""

from __future__ import annotations


import numpy as np

from repro.datasets.base import ClassificationDataset
from repro.utils.rng import check_random_state
from repro.utils.validation import check_positive

#: Rows of a dense design matrix are transformed in blocks of about this many
#: bytes, so a generator's temporaries stay this small whatever ``n_samples``.
BLOCK_BYTES = 1 << 20


def copy_rows(src: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[:indices.size] = src[indices]`` one ``BLOCK_BYTES`` block of rows
    at a time; ``out`` may be ``src`` when ascending ``indices[j] >= j``."""
    rows = max(1, BLOCK_BYTES // (src.shape[1] * src.itemsize))
    for r in range(0, indices.size, rows):
        block = indices[r : r + rows]
        out[r : r + block.size] = src[block]
    return out


def _feature_scales(n_features: int, condition_number: float, rng) -> np.ndarray:
    """Per-feature standard deviations spanning ``sqrt(condition_number)``.

    The data covariance eigenvalue spread is roughly ``condition_number``, so
    the Gauss-Newton Hessian of the softmax loss inherits a comparable
    conditioning.
    """
    condition_number = check_positive(condition_number, name="condition_number")
    if condition_number < 1.0:
        raise ValueError(
            f"condition_number must be >= 1, got {condition_number}"
        )
    exponents = np.linspace(0.0, 1.0, n_features)
    scales = condition_number ** (-0.5 * exponents)
    return rng.permutation(scales)


def make_multiclass_gaussian(
    n_samples: int,
    n_features: int,
    n_classes: int,
    *,
    condition_number: float = 10.0,
    class_separation: float = 2.0,
    label_noise: float = 0.02,
    correlation: float = 0.0,
    name: str = "synthetic",
    random_state=None,
) -> ClassificationDataset:
    """Gaussian-mixture multiclass dataset.

    Each class ``c`` has a mean drawn on a sphere of radius
    ``class_separation``; features are scaled to realize approximately the
    requested ``condition_number`` of the data covariance, and an optional
    AR(1)-style mixing introduces inter-feature ``correlation`` (which further
    degrades conditioning, mimicking natural-image statistics).

    The matrix is built in place, one block of rows (about
    :data:`BLOCK_BYTES`) at a time: the peak allocation is the ``(n, p)``
    output plus one block's temporary, not several copies of the output.
    Every step is element-wise or reads only the row it writes, so the block
    size cannot change the result.

    Parameters
    ----------
    label_noise:
        Fraction of labels flipped uniformly at random (keeps the Bayes error
        non-zero so accuracy curves resemble the paper's).
    """
    if n_classes < 2:
        raise ValueError(f"n_classes must be >= 2, got {n_classes}")
    if not 0.0 <= label_noise < 1.0:
        raise ValueError(f"label_noise must be in [0, 1), got {label_noise}")
    if not 0.0 <= correlation < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {correlation}")
    rng = check_random_state(random_state)

    scales = _feature_scales(n_features, condition_number, rng)
    means = rng.standard_normal((n_classes, n_features))
    means /= np.linalg.norm(means, axis=1, keepdims=True) + 1e-12
    means *= class_separation

    y = rng.integers(0, n_classes, size=n_samples)
    X = rng.standard_normal((n_samples, n_features))
    rows = max(1, BLOCK_BYTES // max(1, X.shape[1] * X.itemsize))
    for start in range(0, n_samples, rows):
        block = X[start : start + rows]
        block += means[y[start : start + rows]]
        block *= scales
        if correlation > 0.0:
            # Mix neighbouring features: X <- X @ M with M = (1-c) I + c S
            # where S shifts columns, producing banded correlation without a
            # dense p x p covariance factorization (important for large p).
            shifted = np.empty_like(block)
            shifted[:, 1:] = block[:, :-1]
            shifted[:, 0] = block[:, -1]
            shifted *= correlation
            block *= 1.0 - correlation
            block += shifted

    if label_noise > 0.0:
        flip = rng.random(n_samples) < label_noise
        y = np.where(flip, rng.integers(0, n_classes, size=n_samples), y)

    return ClassificationDataset(
        X=X,
        y=y,
        n_classes=n_classes,
        name=name,
        metadata={
            "generator": "make_multiclass_gaussian",
            "condition_number": float(condition_number),
            "class_separation": float(class_separation),
            "label_noise": float(label_noise),
            "correlation": float(correlation),
        },
    )


def make_binary_margin(
    n_samples: int,
    n_features: int,
    *,
    margin: float = 1.0,
    condition_number: float = 2.0,
    label_noise: float = 0.05,
    name: str = "binary",
    random_state=None,
) -> ClassificationDataset:
    """Binary dataset with a planted linear separator and a soft margin.

    Used as the HIGGS stand-in: low dimensional, close to linearly separable,
    and well conditioned, so that second-order methods converge in a handful
    of iterations (as the paper observes for HIGGS).

    The draw is scaled in place, so the peak allocation is the ``(n, p)``
    output plus ``O(n)`` for the logits and labels; there is no blocking and
    hence no block size that could change the result.
    """
    rng = check_random_state(random_state)
    scales = _feature_scales(n_features, condition_number, rng)
    w_true = rng.standard_normal(n_features)
    w_true /= np.linalg.norm(w_true) + 1e-12

    X = rng.standard_normal((n_samples, n_features))
    X *= scales
    logits = X @ w_true * margin
    prob = 1.0 / (1.0 + np.exp(-logits))
    y = (rng.random(n_samples) < prob).astype(np.int64)

    if label_noise > 0.0:
        flip = rng.random(n_samples) < label_noise
        y = np.where(flip, 1 - y, y)

    return ClassificationDataset(
        X=X,
        y=y,
        n_classes=2,
        name=name,
        metadata={
            "generator": "make_binary_margin",
            "margin": float(margin),
            "condition_number": float(condition_number),
            "label_noise": float(label_noise),
        },
    )


def make_sparse_multiclass(
    n_samples: int,
    n_features: int,
    n_classes: int,
    *,
    density: float = 0.01,
    nonzero_scale: float = 1.0,
    informative_fraction: float = 0.05,
    label_noise: float = 0.02,
    name: str = "sparse",
    random_state=None,
) -> ClassificationDataset:
    """High-dimensional sparse multiclass dataset (E18 stand-in).

    Single-cell count matrices like E18 are extremely wide and sparse; the
    experiments only ever touch the design matrix through ``X @ V`` and
    ``X.T @ U`` products, so a CSR matrix with matching shape/density
    exercises the same code paths and communication volumes.

    Only ``informative_fraction`` of the features carry class signal; the rest
    are noise, which keeps the problem ill-posed enough that regularization
    matters (the paper sweeps lambda on E18 in Figure 5).
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = check_random_state(random_state)

    n_informative = max(int(informative_fraction * n_features), n_classes)
    n_informative = min(n_informative, n_features)
    informative_idx = rng.choice(n_features, size=n_informative, replace=False)

    # Class "signatures" over the informative features.
    signatures = rng.standard_normal((n_classes, n_informative)) * nonzero_scale
    y = rng.integers(0, n_classes, size=n_samples)

    nnz_per_row = max(int(density * n_features), 1)
    rows = np.repeat(np.arange(n_samples), nnz_per_row)
    cols = np.empty(n_samples * nnz_per_row, dtype=np.int64)
    data = np.empty(n_samples * nnz_per_row, dtype=np.float64)

    # Half of each row's non-zeros land on informative features (carrying the
    # class signature plus noise), half on random background features; rows
    # can never ask for more informative columns than exist.
    n_info_per_row = min(max(nnz_per_row // 2, 1), n_informative)
    n_bg_per_row = nnz_per_row - n_info_per_row
    sorted_informative = np.sort(informative_idx)
    for i in range(n_samples):
        start = i * nnz_per_row
        info_cols = rng.choice(informative_idx, size=n_info_per_row, replace=False)
        # Map chosen informative columns back to signature positions.
        sig_pos = np.searchsorted(sorted_informative, info_cols)
        sig_vals = signatures[y[i], sig_pos % n_informative]
        cols[start : start + n_info_per_row] = info_cols
        data[start : start + n_info_per_row] = sig_vals + 0.3 * rng.standard_normal(
            n_info_per_row
        )
        if n_bg_per_row > 0:
            bg_cols = rng.integers(0, n_features, size=n_bg_per_row)
            cols[start + n_info_per_row : start + nnz_per_row] = bg_cols
            data[start + n_info_per_row : start + nnz_per_row] = rng.standard_normal(
                n_bg_per_row
            )

    import scipy.sparse as sp

    X = sp.coo_matrix(
        (data, (rows, cols)), shape=(n_samples, n_features), dtype=np.float64
    ).tocsr()
    X.sum_duplicates()

    if label_noise > 0.0:
        flip = rng.random(n_samples) < label_noise
        y = np.where(flip, rng.integers(0, n_classes, size=n_samples), y)

    return ClassificationDataset(
        X=X,
        y=y,
        n_classes=n_classes,
        name=name,
        metadata={
            "generator": "make_sparse_multiclass",
            "density": float(density),
            "informative_fraction": float(informative_fraction),
            "label_noise": float(label_noise),
        },
    )
