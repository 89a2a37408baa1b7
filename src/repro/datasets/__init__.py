"""Dataset substrate for the Newton-ADMM reproduction.

The paper evaluates on HIGGS, MNIST, CIFAR-10 and the E18 single-cell
dataset.  None of those are redistributable/available offline, so this package
provides *synthetic stand-ins* whose statistically relevant properties (number
of classes, feature dimension, conditioning of the resulting classification
problem, sparsity) are matched and controllable; each generator in
:mod:`repro.datasets.registry` says which properties it matches.

Users who do have the real data can load it through :mod:`repro.datasets.io`
(LIBSVM/SVMlight text and labelled CSV readers) and feed the resulting
:class:`ClassificationDataset` to the same cluster / solver APIs.
"""

from repro.datasets.base import ClassificationDataset, train_test_split
from repro.datasets.synthetic import (
    make_multiclass_gaussian,
    make_binary_margin,
    make_sparse_multiclass,
)
from repro.datasets.registry import (
    DATASET_REGISTRY,
    DatasetSpec,
    load_dataset,
    higgs_like,
    mnist_like,
    cifar_like,
    e18_like,
)
from repro.datasets.sharding import (
    shard_contiguous,
    shard_round_robin,
    shard_stratified,
    shard_dataset,
)
from repro.datasets.preprocessing import (
    standardize,
    add_bias_column,
    normalize_rows,
    Standardizer,
)
from repro.datasets.io import load_csv, load_libsvm, save_csv, save_libsvm

__all__ = [
    "load_libsvm",
    "save_libsvm",
    "load_csv",
    "save_csv",
    "ClassificationDataset",
    "train_test_split",
    "make_multiclass_gaussian",
    "make_binary_margin",
    "make_sparse_multiclass",
    "DATASET_REGISTRY",
    "DatasetSpec",
    "load_dataset",
    "higgs_like",
    "mnist_like",
    "cifar_like",
    "e18_like",
    "shard_contiguous",
    "shard_round_robin",
    "shard_stratified",
    "shard_dataset",
    "standardize",
    "add_bias_column",
    "normalize_rows",
    "Standardizer",
]
