"""Tests for the dataset registry (Table 1 stand-ins)."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets.registry import (
    DATASET_REGISTRY,
    PAPER_TABLE1,
    cifar_like,
    e18_like,
    higgs_like,
    load_dataset,
    mnist_like,
)


class TestRegistryContents:
    def test_all_four_workloads_registered(self):
        assert set(DATASET_REGISTRY) == {
            "higgs_like",
            "mnist_like",
            "cifar_like",
            "e18_like",
        }

    def test_paper_table_matches_paper(self):
        assert PAPER_TABLE1["higgs"]["n_features"] == 28
        assert PAPER_TABLE1["mnist"]["n_features"] == 784
        assert PAPER_TABLE1["cifar10"]["n_features"] == 3072
        assert PAPER_TABLE1["e18"]["n_features"] == 279_998
        assert PAPER_TABLE1["e18"]["n_classes"] == 20

    def test_spec_fields(self):
        spec = DATASET_REGISTRY["mnist_like"]
        assert spec.paper_name == "MNIST"
        assert spec.n_classes == 10
        assert spec.n_features == 784


class TestFactories:
    def test_higgs_shapes(self):
        train, test = higgs_like(n_train=500, n_test=100, random_state=0)
        assert train.n_classes == 2
        assert train.n_features == 28
        assert train.n_samples == 500
        assert test.n_samples == 100

    def test_mnist_shapes(self):
        train, test = mnist_like(n_train=400, n_test=100, random_state=0)
        assert train.n_classes == 10
        assert train.n_features == 784

    def test_cifar_shapes(self):
        train, test = cifar_like(n_train=200, n_test=50, random_state=0)
        assert train.n_classes == 10
        assert train.n_features == 3072

    def test_e18_shapes_and_sparsity(self):
        train, test = e18_like(n_train=200, n_test=50, random_state=0)
        assert train.n_classes == 20
        assert train.is_sparse
        assert train.n_features == int(279_998 * 0.05)

    def test_e18_feature_scale(self):
        train, _ = e18_like(n_train=100, n_test=20, feature_scale=0.01, random_state=0)
        assert train.n_features == int(279_998 * 0.01)


class TestLoadDataset:
    def test_load_by_name(self):
        train, test = load_dataset("higgs_like", n_train=300, n_test=60, random_state=1)
        assert train.n_samples == 300
        assert test.n_samples == 60

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_defaults_used_when_sizes_omitted(self):
        spec = DATASET_REGISTRY["mnist_like"]
        train, test = load_dataset("mnist_like", random_state=0)
        assert train.n_samples == spec.default_train
        assert test.n_samples == spec.default_test

    def test_deterministic_given_seed(self):
        a_train, _ = load_dataset("mnist_like", n_train=200, n_test=40, random_state=3)
        b_train, _ = load_dataset("mnist_like", n_train=200, n_test=40, random_state=3)
        assert (a_train.y == b_train.y).all()

    def test_kwargs_forwarded(self):
        train, _ = load_dataset(
            "e18_like", n_train=100, n_test=20, feature_scale=0.02, random_state=0
        )
        assert train.n_features == int(279_998 * 0.02)


def _digest(train, test) -> str:
    """sha256 over ``train.X``, ``train.y``, ``test.X``, ``test.y``: dtype,
    shape and bytes of each dense array; ``data``/``indices``/``indptr`` and
    shape of each CSR matrix."""
    h = hashlib.sha256()
    for part in (train.X, train.y, test.X, test.y):
        if sp.issparse(part):
            for a in (part.data, part.indices, part.indptr):
                h.update(np.ascontiguousarray(a).tobytes())
            h.update(repr(part.shape).encode())
        else:
            a = np.ascontiguousarray(part)
            h.update(a.dtype.str.encode())
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


#: ``load_dataset`` outputs, pinned bit for bit: a generator may change how it
#: builds its arrays (blocking, in-place arithmetic, hoisted invariants) but
#: never a bit of what it returns.  Recorded before the in-place build.
PINNED_DIGESTS = {
    ("mnist_like", 2000, 500, 0): "7163738ca970ab0bf0fa17d05b771e992fd15e2ac6d4e6889ddd7801d9b98438",
    ("mnist_like", 2000, 500, 7): "af8ea50a09ff7b05ad6ab4c8f098924dc8eb5e281145e3efe21c8773211d5663",
    ("cifar_like", 600, 120, 0): "97b084c40ee3d189e4745471df3ac4b361b0bd6d3ba486a3ad1d3cadc7ad7ec4",
    ("cifar_like", 600, 120, 7): "029e5f7030ca867b6bce0a0d42c9f3895613abf8f88c60b20d63fa0e9423772b",
    ("higgs_like", 2000, 400, 0): "a164c8719040aaf05548b3790ee221f59e45b3b50eaeddb632e81090b3b5383a",
    ("higgs_like", 2000, 400, 7): "8db120211198aa6294667764b9e42323041f184a9129c01575de42d9922bf740",
    ("e18_like", 400, 80, 0): "05e6a72ad7bc037b5bfe224d7d40b5108b28ab3de883c4be885036e763a6c522",
    ("e18_like", 400, 80, 7): "3a078c67b9c72aa39b03fbb96ac46c0e0bcfee13d59c025d9bcb58b405bd017b",
}


@pytest.mark.parametrize("case", sorted(PINNED_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_load_dataset_output_is_pinned(case):
    name, n_train, n_test, seed = case
    train, test = load_dataset(name, n_train=n_train, n_test=n_test, random_state=seed)
    assert _digest(train, test) == PINNED_DIGESTS[case]
