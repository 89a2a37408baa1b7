"""Partitioning datasets across simulated workers.

The consensus formulation (paper eq. 5) splits the dataset ``D`` into
``D_1 ∪ ... ∪ D_N``.  Three strategies are provided; the paper's experiments
correspond to contiguous/by-sample splits, but stratified sharding is the
robust default for classification (a worker that never sees a class has a
degenerate local subproblem).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datasets.base import ClassificationDataset
from repro.datasets.synthetic import copy_rows
from repro.utils.rng import check_random_state


def shard_indices(
    dataset: ClassificationDataset,
    n_shards: int,
    *,
    strategy: str = "stratified",
    random_state=None,
) -> List[np.ndarray]:
    """The ascending row indices of each shard under the named strategy.

    ``"stratified"`` shuffles the rows of each class and deals them
    round-robin, so shard sizes differ by at most ``n_classes`` and class
    proportions match the global dataset.
    """
    if strategy not in ("contiguous", "round_robin", "stratified"):
        raise ValueError(
            f"unknown sharding strategy {strategy!r}; "
            "expected 'contiguous', 'round_robin' or 'stratified'"
        )
    _validate_n_shards(dataset, n_shards)
    n = dataset.n_samples
    if strategy == "contiguous":
        bounds = np.linspace(0, n, n_shards + 1).astype(int)
        return [np.arange(bounds[i], bounds[i + 1]) for i in range(n_shards)]
    if strategy == "round_robin":
        return [np.arange(i, n, n_shards) for i in range(n_shards)]
    rng = check_random_state(random_state)
    assignment = np.empty(n, dtype=np.int64)
    offset = 0
    for c in range(dataset.n_classes):
        class_idx = np.flatnonzero(dataset.y == c)
        rng.shuffle(class_idx)
        # Continue the round-robin counter across classes to balance sizes.
        positions = (np.arange(class_idx.size) + offset) % n_shards
        assignment[class_idx] = positions
        offset += class_idx.size
    return [np.flatnonzero(assignment == i) for i in range(n_shards)]


def gather_shard(
    dataset: ClassificationDataset, indices: np.ndarray, dtype, *, name: str
) -> ClassificationDataset:
    """``dataset.subset(indices)`` with ``X`` stored as ``dtype``; dense rows
    are cast a block at a time, so no copy at the source dtype is held."""
    if dataset.is_sparse:
        X = dataset.X[indices].astype(dtype, copy=False)
    else:
        out = np.empty((indices.size, dataset.n_features), dtype=dtype)
        X = copy_rows(dataset.X, indices, out)
    return ClassificationDataset(
        X, dataset.y[indices], dataset.n_classes, name=name,
        metadata=dict(dataset.metadata),
    )


def shard_dataset(
    dataset: ClassificationDataset,
    n_shards: int,
    *,
    strategy: str = "stratified",
    random_state=None,
) -> List[ClassificationDataset]:
    """Shard a dataset with the named strategy (see :func:`shard_indices`).

    Parameters
    ----------
    strategy:
        ``"contiguous"``, ``"round_robin"`` or ``"stratified"``.
    """
    parts = shard_indices(dataset, n_shards, strategy=strategy, random_state=random_state)
    return [dataset.subset(idx, name=f"{dataset.name}[shard {i}]") for i, idx in enumerate(parts)]


def shard_contiguous(dataset: ClassificationDataset, n_shards: int) -> List[ClassificationDataset]:
    """Split rows into ``n_shards`` contiguous, nearly equal-sized blocks."""
    return shard_dataset(dataset, n_shards, strategy="contiguous")


def shard_round_robin(dataset: ClassificationDataset, n_shards: int) -> List[ClassificationDataset]:
    """Deal rows to shards in round-robin order (shard ``i`` gets rows ``i, i+N, ...``)."""
    return shard_dataset(dataset, n_shards, strategy="round_robin")


def shard_stratified(
    dataset: ClassificationDataset, n_shards: int, *, random_state=None
) -> List[ClassificationDataset]:
    """Split rows so every shard gets (approximately) every class."""
    return shard_dataset(dataset, n_shards, strategy="stratified", random_state=random_state)


def _validate_n_shards(dataset: ClassificationDataset, n_shards: int) -> None:
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > dataset.n_samples:
        raise ValueError(
            f"cannot split {dataset.n_samples} samples into {n_shards} shards"
        )
