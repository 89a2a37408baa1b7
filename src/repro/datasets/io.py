"""Dataset file I/O: LIBSVM/SVMlight text format and labelled CSV.

The evaluation datasets of the paper (HIGGS, MNIST, CIFAR-10, E18) are all
distributed in one of two de-facto formats — LIBSVM sparse text or dense
CSV — so a downstream user who wants to run this library on the *real* data
rather than the synthetic stand-ins only needs these two readers.  Both return
the same :class:`~repro.datasets.base.ClassificationDataset` the rest of the
library consumes, and both have matching writers so fixtures and preprocessed
subsets can be round-tripped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.datasets.base import ClassificationDataset

PathLike = Union[str, Path]


def _remap_labels(raw_labels, n_classes: Optional[int]) -> tuple:
    """Map arbitrary numeric labels (e.g. {-1, +1} or {1..C}) to ``{0..C-1}``."""
    raw = np.asarray(raw_labels, dtype=np.float64)
    unique = np.unique(raw)
    mapping: Dict[float, int] = {value: idx for idx, value in enumerate(unique)}
    y = np.array([mapping[v] for v in raw], dtype=np.int64)
    inferred = len(unique)
    if n_classes is not None and n_classes < inferred:
        raise ValueError(
            f"n_classes={n_classes} but the file contains {inferred} distinct labels"
        )
    return y, (n_classes or max(inferred, 2)), {int(v) if v.is_integer() else v: i
                                                for v, i in mapping.items()}


def load_libsvm(
    path: PathLike,
    *,
    n_features: Optional[int] = None,
    n_classes: Optional[int] = None,
    zero_based: bool = False,
    name: Optional[str] = None,
) -> ClassificationDataset:
    """Read a LIBSVM/SVMlight text file into a sparse classification dataset.

    Each line is ``<label> <index>:<value> <index>:<value> ...``; ``#``
    comments are stripped.  Labels are remapped to ``{0, ..., C-1}`` in sorted
    order of their original values (so ``{-1, +1}`` becomes ``{0, 1}``); the
    original-label mapping is stored in ``dataset.metadata["label_mapping"]``.

    Parameters
    ----------
    n_features:
        Force the feature dimension (otherwise the maximum index seen is used).
    zero_based:
        Set when the file's feature indices start at 0 (LIBSVM convention is
        1-based).
    """
    path = Path(path)
    labels = []
    rows, cols, vals = [], [], []
    max_index = -1
    with path.open() as handle:
        for line_number, line in enumerate(handle):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(float(parts[0]))
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{line_number + 1}: invalid label {parts[0]!r}"
                ) from exc
            row = len(labels) - 1
            for token in parts[1:]:
                try:
                    index_text, value_text = token.split(":", 1)
                    index = int(index_text)
                    value = float(value_text)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{line_number + 1}: invalid feature token {token!r}"
                    ) from exc
                if not zero_based:
                    index -= 1
                if index < 0:
                    raise ValueError(
                        f"{path}:{line_number + 1}: negative feature index {token!r}"
                    )
                rows.append(row)
                cols.append(index)
                vals.append(value)
                max_index = max(max_index, index)
    if not labels:
        raise ValueError(f"{path} contains no samples")
    width = n_features if n_features is not None else max_index + 1
    if width <= 0:
        raise ValueError(f"{path} contains no features; pass n_features explicitly")
    if max_index >= width:
        raise ValueError(
            f"{path} has feature index {max_index} >= n_features={width}"
        )
    import scipy.sparse as sp

    X = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(labels), width), dtype=np.float64
    )
    y, n_classes, mapping = _remap_labels(labels, n_classes)
    return ClassificationDataset(
        X=X,
        y=y,
        n_classes=n_classes,
        name=name or path.stem,
        metadata={"source": str(path), "format": "libsvm", "label_mapping": mapping},
    )


def save_libsvm(dataset: ClassificationDataset, path: PathLike, *, zero_based: bool = False) -> Path:
    """Write a dataset in LIBSVM text format (omitting explicit zeros)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    import scipy.sparse as sp

    X = sp.csr_matrix(dataset.X)
    offset = 0 if zero_based else 1
    with path.open("w") as handle:
        for i in range(dataset.n_samples):
            start, end = X.indptr[i], X.indptr[i + 1]
            features = " ".join(
                f"{int(j) + offset}:{v:.17g}"
                for j, v in zip(X.indices[start:end], X.data[start:end])
            )
            handle.write(f"{int(dataset.y[i])} {features}".rstrip() + "\n")
    return path


def load_csv(
    path: PathLike,
    *,
    label_column: int = 0,
    delimiter: str = ",",
    skip_header: int = 0,
    n_classes: Optional[int] = None,
    name: Optional[str] = None,
) -> ClassificationDataset:
    """Read a dense labelled CSV (one sample per row, one column of labels).

    Parameters
    ----------
    label_column:
        Which column holds the class label (0 = first, -1 = last, HIGGS-style
        files put it first).
    skip_header:
        Number of leading lines to skip (column headers).
    """
    path = Path(path)
    data = np.loadtxt(path, delimiter=delimiter, skiprows=skip_header, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path} contains no samples")
    n_columns = data.shape[1]
    if n_columns < 2:
        raise ValueError(f"{path} must have at least two columns (label + features)")
    label_index = label_column % n_columns
    raw_labels = data[:, label_index]
    X = np.delete(data, label_index, axis=1)
    y, n_classes, mapping = _remap_labels(raw_labels, n_classes)
    return ClassificationDataset(
        X=X,
        y=y,
        n_classes=n_classes,
        name=name or path.stem,
        metadata={"source": str(path), "format": "csv", "label_mapping": mapping},
    )


def save_csv(
    dataset: ClassificationDataset, path: PathLike, *, delimiter: str = ","
) -> Path:
    """Write a dense labelled CSV with the label in the first column."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    X = np.asarray(dataset.X.todense()) if dataset.is_sparse else dataset.X
    table = np.column_stack([dataset.y.astype(np.float64), X])
    np.savetxt(path, table, delimiter=delimiter, fmt="%.17g")
    return path
