"""Registry of the paper's four evaluation workloads (Table 1 stand-ins).

Each entry reproduces the *role* of the corresponding dataset in the paper's
evaluation at a reproduction-friendly scale (`scale` multiplies the sample
count; feature counts are kept at the paper's values except for E18, whose
280k features are scaled down by default but can be restored via
``feature_scale=1.0``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.datasets.base import ClassificationDataset, split_mask
from repro.datasets.synthetic import (
    copy_rows,
    make_binary_margin,
    make_multiclass_gaussian,
    make_sparse_multiclass,
)

#: Paper's Table 1, used for reporting and for scaling the synthetic stand-ins.
PAPER_TABLE1 = {  # repro-lint: ignore[RPR003] filled once below, read-only after import
    "higgs": {"n_classes": 2, "n_samples": 11_000_000, "test_size": 1_000_000, "n_features": 28},
    "mnist": {"n_classes": 10, "n_samples": 70_000, "test_size": 10_000, "n_features": 784},
    "cifar10": {"n_classes": 10, "n_samples": 60_000, "test_size": 10_000, "n_features": 3_072},
    "e18": {"n_classes": 20, "n_samples": 1_306_128, "test_size": 6_000, "n_features": 279_998},
}


@dataclass(frozen=True)
class DatasetSpec:
    """Description of a registered workload.

    Attributes
    ----------
    name:
        Registry key.
    paper_name:
        Name of the dataset this entry stands in for.
    n_classes, n_features:
        Problem shape (post feature scaling for E18).
    default_train, default_test:
        Default sample counts at reproduction scale.
    conditioning:
        Qualitative conditioning note used in reports.
    factory:
        Callable ``(n_train, n_test, random_state) -> (train, test)``.
    """

    name: str
    paper_name: str
    n_classes: int
    n_features: int
    default_train: int
    default_test: int
    conditioning: str
    factory: Callable[[int, int, Optional[int]], Tuple[ClassificationDataset, ClassificationDataset]]
    notes: str = ""
    extra: dict = field(default_factory=dict)


def _split(dataset: ClassificationDataset, n_test: int, random_state):
    """``train_test_split`` of a dataset this module just generated, with no
    second full copy: the test rows are copied out, the (ascending) train rows
    compacted to the front of the buffer, and the buffer shrunk.  ``dataset``
    is unusable afterwards; CSR is copied."""
    mask = split_mask(dataset, test_size=n_test, random_state=random_state)
    test = dataset.subset(np.flatnonzero(mask), name=f"{dataset.name}-test")
    train_idx = np.flatnonzero(~mask)
    X = dataset.X
    if dataset.is_sparse or not (X.flags.owndata and X.flags.c_contiguous):
        return dataset.subset(train_idx, name=f"{dataset.name}-train"), test
    copy_rows(X, train_idx, X).resize((train_idx.size, X.shape[1]), refcheck=False)
    train = ClassificationDataset(
        X, dataset.y[train_idx], dataset.n_classes,
        name=f"{dataset.name}-train", metadata=dict(dataset.metadata),
    )
    return train, test


def higgs_like(
    n_train: int = 20_000,
    n_test: int = 4_000,
    *,
    random_state=0,
) -> Tuple[ClassificationDataset, ClassificationDataset]:
    """HIGGS stand-in: binary, 28 features, well conditioned."""
    ds = make_binary_margin(
        n_samples=n_train + n_test,
        n_features=28,
        margin=1.5,
        condition_number=2.0,
        label_noise=0.08,
        name="higgs_like",
        random_state=random_state,
    )
    return _split(ds, n_test, random_state)


def mnist_like(
    n_train: int = 10_000,
    n_test: int = 2_000,
    *,
    random_state=0,
) -> Tuple[ClassificationDataset, ClassificationDataset]:
    """MNIST stand-in: 10 classes, 784 features, moderately conditioned."""
    ds = make_multiclass_gaussian(
        n_samples=n_train + n_test,
        n_features=784,
        n_classes=10,
        condition_number=50.0,
        class_separation=6.0,
        label_noise=0.02,
        correlation=0.2,
        name="mnist_like",
        random_state=random_state,
    )
    return _split(ds, n_test, random_state)


def cifar_like(
    n_train: int = 6_000,
    n_test: int = 1_200,
    *,
    random_state=0,
) -> Tuple[ClassificationDataset, ClassificationDataset]:
    """CIFAR-10 stand-in: 10 classes, 3072 features, ill conditioned.

    The large condition number and strong feature correlation reproduce the
    behaviour the paper attributes to CIFAR-10 (GIANT's iteration counts blow
    up relative to Newton-ADMM as workers are added).
    """
    ds = make_multiclass_gaussian(
        n_samples=n_train + n_test,
        n_features=3_072,
        n_classes=10,
        condition_number=1e4,
        class_separation=1.5,
        label_noise=0.05,
        correlation=0.6,
        name="cifar_like",
        random_state=random_state,
    )
    return _split(ds, n_test, random_state)


def e18_like(
    n_train: int = 4_000,
    n_test: int = 800,
    *,
    feature_scale: float = 0.05,
    random_state=0,
) -> Tuple[ClassificationDataset, ClassificationDataset]:
    """E18 stand-in: 20 classes, very wide sparse design matrix.

    ``feature_scale`` multiplies the paper's 279,998 features (default 5%,
    i.e. ~14k features) so that the reproduction runs on a laptop; pass 1.0 to
    restore the full width.
    """
    n_features = max(int(PAPER_TABLE1["e18"]["n_features"] * feature_scale), 100)
    ds = make_sparse_multiclass(
        n_samples=n_train + n_test,
        n_features=n_features,
        n_classes=20,
        density=0.01,
        informative_fraction=0.05,
        label_noise=0.02,
        name="e18_like",
        random_state=random_state,
    )
    return _split(ds, n_test, random_state)


DATASET_REGISTRY: Dict[str, DatasetSpec] = {  # repro-lint: ignore[RPR003] filled once below, read-only after import
    "higgs_like": DatasetSpec(
        name="higgs_like",
        paper_name="HIGGS",
        n_classes=2,
        n_features=28,
        default_train=20_000,
        default_test=4_000,
        conditioning="well-conditioned",
        factory=higgs_like,
        notes="binary, near-separable; both solvers converge in ~1 outer iteration",
    ),
    "mnist_like": DatasetSpec(
        name="mnist_like",
        paper_name="MNIST",
        n_classes=10,
        n_features=784,
        default_train=10_000,
        default_test=2_000,
        conditioning="moderate",
        factory=mnist_like,
    ),
    "cifar_like": DatasetSpec(
        name="cifar_like",
        paper_name="CIFAR-10",
        n_classes=10,
        n_features=3_072,
        default_train=6_000,
        default_test=1_200,
        conditioning="ill-conditioned",
        factory=cifar_like,
    ),
    "e18_like": DatasetSpec(
        name="e18_like",
        paper_name="E18",
        n_classes=20,
        n_features=int(PAPER_TABLE1["e18"]["n_features"] * 0.05),
        default_train=4_000,
        default_test=800,
        conditioning="high-dimensional, sparse",
        factory=e18_like,
        notes="Hessian never materialized; exercises the Hessian-free path",
    ),
}


def load_dataset(
    name: str,
    *,
    n_train: Optional[int] = None,
    n_test: Optional[int] = None,
    random_state=0,
    **kwargs,
) -> Tuple[ClassificationDataset, ClassificationDataset]:
    """Load a registered workload by name.

    Parameters
    ----------
    name:
        One of :data:`DATASET_REGISTRY` keys (``higgs_like``, ``mnist_like``,
        ``cifar_like``, ``e18_like``).
    n_train, n_test:
        Override the default reproduction-scale sample counts.
    kwargs:
        Passed to the underlying factory (e.g. ``feature_scale`` for E18).
    """
    if name not in DATASET_REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}"
        )
    spec = DATASET_REGISTRY[name]
    n_train = spec.default_train if n_train is None else int(n_train)
    n_test = spec.default_test if n_test is None else int(n_test)
    return spec.factory(n_train, n_test, random_state=random_state, **kwargs)
