"""Feature preprocessing used before training.

The paper standardizes inputs (standard practice for the logistic /
cross-entropy models it trains); these helpers keep dense and sparse paths
consistent and fit-on-train / apply-on-test semantics explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datasets.base import ClassificationDataset
from repro.utils.validation import issparse


@dataclass
class Standardizer:
    """Per-feature affine transform ``(x - mean) / scale`` fit on training data.

    For sparse matrices only the scale is applied (centering would destroy
    sparsity), matching common practice for wide sparse problems like E18.
    """

    mean_: Optional[np.ndarray] = None
    scale_: Optional[np.ndarray] = None
    with_mean: bool = True

    def fit(self, X) -> "Standardizer":
        if issparse(X):
            self.with_mean = False
            mean = np.zeros(X.shape[1])
            # E[x^2] per column for CSR without densifying.
            sq = X.multiply(X).mean(axis=0)
            var = np.asarray(sq).ravel()
        else:
            mean = X.mean(axis=0)
            var = X.var(axis=0)
        scale = np.sqrt(var)
        scale[scale < 1e-12] = 1.0
        self.mean_ = mean if self.with_mean else np.zeros(X.shape[1])
        self.scale_ = scale
        return self

    def transform(self, X):
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("Standardizer must be fit before transform")
        if issparse(X):
            import scipy.sparse as sp

            inv = sp.diags(1.0 / self.scale_)
            return (X @ inv).tocsr()
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X):
        return self.fit(X).transform(X)


def standardize(
    train: ClassificationDataset, test: Optional[ClassificationDataset] = None
):
    """Standardize a train (and optionally test) dataset with train statistics.

    Returns the transformed dataset(s) — new objects, inputs are not mutated.
    """
    scaler = Standardizer()
    X_train = scaler.fit_transform(train.X)
    new_train = ClassificationDataset(
        X=X_train, y=train.y, n_classes=train.n_classes, name=train.name,
        metadata={**train.metadata, "standardized": True},
    )
    if test is None:
        return new_train
    X_test = scaler.transform(test.X)
    new_test = ClassificationDataset(
        X=X_test, y=test.y, n_classes=test.n_classes, name=test.name,
        metadata={**test.metadata, "standardized": True},
    )
    return new_train, new_test


def add_bias_column(dataset: ClassificationDataset) -> ClassificationDataset:
    """Append a constant ``1`` feature so the linear model learns an intercept."""
    if dataset.is_sparse:
        import scipy.sparse as sp

        ones = sp.csr_matrix(np.ones((dataset.n_samples, 1)))
        X = sp.hstack([dataset.X, ones], format="csr")
    else:
        X = np.hstack([dataset.X, np.ones((dataset.n_samples, 1))])
    return ClassificationDataset(
        X=X,
        y=dataset.y,
        n_classes=dataset.n_classes,
        name=dataset.name,
        metadata={**dataset.metadata, "bias_column": True},
    )


def normalize_rows(dataset: ClassificationDataset) -> ClassificationDataset:
    """Scale every sample to unit L2 norm (common for sparse count data)."""
    if dataset.is_sparse:
        import scipy.sparse as sp

        norms = np.sqrt(np.asarray(dataset.X.multiply(dataset.X).sum(axis=1)).ravel())
        norms[norms < 1e-12] = 1.0
        inv = sp.diags(1.0 / norms)
        X = (inv @ dataset.X).tocsr()
    else:
        norms = np.linalg.norm(dataset.X, axis=1)
        norms[norms < 1e-12] = 1.0
        X = dataset.X / norms[:, None]
    return ClassificationDataset(
        X=X,
        y=dataset.y,
        n_classes=dataset.n_classes,
        name=dataset.name,
        metadata={**dataset.metadata, "row_normalized": True},
    )
