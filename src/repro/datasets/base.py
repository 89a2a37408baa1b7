"""Core dataset container and train/test splitting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import check_random_state
from repro.utils.validation import check_array, check_labels, issparse


@dataclass
class ClassificationDataset:
    """A labelled classification dataset (dense or sparse design matrix).

    Attributes
    ----------
    X:
        Design matrix of shape ``(n_samples, n_features)``; dense ndarray or
        CSR matrix.
    y:
        Integer labels in ``{0, ..., n_classes - 1}``.
    n_classes:
        Number of classes (``C`` in the paper).
    name:
        Human-readable name used in reports.
    """

    X: np.ndarray
    y: np.ndarray
    n_classes: int
    name: str = "dataset"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A floating design matrix keeps its dtype, so the shards of a
        # float32 dataset stay float32 like the dataset itself.
        dtype = getattr(self.X, "dtype", None)
        if dtype is None or not np.issubdtype(dtype, np.floating):
            dtype = np.float64
        self.X = check_array(self.X, name="X", allow_sparse=True, dtype=dtype)
        self.y, self.n_classes = check_labels(
            self.y, n_samples=self.X.shape[0], n_classes=self.n_classes
        )

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @property
    def is_sparse(self) -> bool:
        return issparse(self.X)

    @property
    def dim(self) -> int:
        """Dimension of the optimization variable: ``(C - 1) * p``."""
        return (self.n_classes - 1) * self.n_features

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the design matrix in bytes."""
        if self.is_sparse:
            return int(
                self.X.data.nbytes + self.X.indices.nbytes + self.X.indptr.nbytes
            )
        return int(self.X.nbytes)

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, length ``n_classes``."""
        return np.bincount(self.y, minlength=self.n_classes)

    def subset(self, indices: np.ndarray, name: Optional[str] = None) -> "ClassificationDataset":
        """Return a new dataset restricted to ``indices`` (rows)."""
        indices = np.asarray(indices, dtype=np.int64)
        X_sub = self.X[indices]
        return ClassificationDataset(
            X=X_sub,
            y=self.y[indices],
            n_classes=self.n_classes,
            name=name or self.name,
            metadata=dict(self.metadata),
        )

    def subsample(
        self, n_samples: int, *, random_state=None, stratified: bool = True
    ) -> "ClassificationDataset":
        """Randomly subsample ``n_samples`` rows (optionally class-stratified).

        This mirrors the paper's procedure of sampling 60,000 / 480,000
        instances from E18 to fit the training set on the GPU.
        """
        if n_samples > self.n_samples:
            raise ValueError(
                f"cannot subsample {n_samples} rows from a dataset with "
                f"{self.n_samples} rows"
            )
        rng = check_random_state(random_state)
        if not stratified:
            idx = rng.choice(self.n_samples, size=n_samples, replace=False)
            return self.subset(np.sort(idx))
        # Stratified: allocate samples proportionally per class, fixing
        # rounding by topping up from the largest classes.
        counts = self.class_counts()
        fractions = counts / counts.sum()
        alloc = np.floor(fractions * n_samples).astype(int)
        deficit = n_samples - alloc.sum()
        order = np.argsort(-counts)
        for k in range(deficit):
            alloc[order[k % len(order)]] += 1
        chosen = []
        for c in range(self.n_classes):
            class_idx = np.flatnonzero(self.y == c)
            take = min(alloc[c], class_idx.size)
            if take > 0:
                chosen.append(rng.choice(class_idx, size=take, replace=False))
        idx = np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
        # If stratification under-filled (tiny classes), top up uniformly.
        if idx.size < n_samples:
            remaining = np.setdiff1d(np.arange(self.n_samples), idx)
            extra = rng.choice(remaining, size=n_samples - idx.size, replace=False)
            idx = np.concatenate([idx, extra])
        return self.subset(np.sort(idx))

    def describe(self) -> dict:
        """Summary statistics matching the columns of the paper's Table 1."""
        return {
            "name": self.name,
            "n_classes": self.n_classes,
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "dim": self.dim,
            "sparse": self.is_sparse,
            "nbytes": self.nbytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "sparse" if self.is_sparse else "dense"
        return (
            f"ClassificationDataset(name={self.name!r}, n={self.n_samples}, "
            f"p={self.n_features}, C={self.n_classes}, {kind})"
        )


def split_mask(
    dataset: ClassificationDataset,
    *,
    test_size: float | int = 0.2,
    random_state=None,
    stratified: bool = True,
) -> np.ndarray:
    """Boolean mask of the rows :func:`train_test_split` puts in the test set."""
    n = dataset.n_samples
    if isinstance(test_size, float):
        if not 0.0 < test_size < 1.0:
            raise ValueError(f"fractional test_size must be in (0, 1), got {test_size}")
        n_test = int(round(test_size * n))
    else:
        n_test = int(test_size)
    if not 0 < n_test < n:
        raise ValueError(f"test_size {n_test} must be in (0, {n})")

    rng = check_random_state(random_state)
    if stratified:
        test_idx_parts = []
        counts = dataset.class_counts()
        fractions = counts / counts.sum()
        alloc = np.floor(fractions * n_test).astype(int)
        deficit = n_test - alloc.sum()
        order = np.argsort(-counts)
        for k in range(deficit):
            alloc[order[k % len(order)]] += 1
        for c in range(dataset.n_classes):
            class_idx = np.flatnonzero(dataset.y == c)
            take = min(alloc[c], max(class_idx.size - 1, 0))
            if take > 0:
                test_idx_parts.append(rng.choice(class_idx, size=take, replace=False))
        test_idx = (
            np.concatenate(test_idx_parts) if test_idx_parts else np.empty(0, np.int64)
        )
        if test_idx.size < n_test:
            remaining = np.setdiff1d(np.arange(n), test_idx)
            extra = rng.choice(remaining, size=n_test - test_idx.size, replace=False)
            test_idx = np.concatenate([test_idx, extra])
    else:
        test_idx = rng.choice(n, size=n_test, replace=False)

    test_mask = np.zeros(n, dtype=bool)
    test_mask[test_idx] = True
    return test_mask


def train_test_split(
    dataset: ClassificationDataset,
    *,
    test_size: float | int = 0.2,
    random_state=None,
    stratified: bool = True,
) -> Tuple[ClassificationDataset, ClassificationDataset]:
    """Split a dataset into train and test partitions (``dataset`` is left
    as it is; both partitions are copies).

    Parameters
    ----------
    test_size:
        Either a fraction in (0, 1) or an absolute number of test samples.
    stratified:
        Preserve class proportions in both splits.
    """
    test_mask = split_mask(
        dataset, test_size=test_size, random_state=random_state, stratified=stratified
    )
    train = dataset.subset(np.flatnonzero(~test_mask), name=f"{dataset.name}-train")
    test = dataset.subset(np.flatnonzero(test_mask), name=f"{dataset.name}-test")
    return train, test
