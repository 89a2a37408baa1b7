"""Tests for the synthetic dataset generators."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.datasets import synthetic
from repro.datasets.synthetic import (
    make_binary_margin,
    make_multiclass_gaussian,
    make_sparse_multiclass,
)


class TestMulticlassGaussian:
    def test_shapes_and_classes(self):
        ds = make_multiclass_gaussian(200, 10, 4, random_state=0)
        assert ds.X.shape == (200, 10)
        assert ds.n_classes == 4
        assert set(np.unique(ds.y)).issubset(set(range(4)))

    def test_deterministic(self):
        a = make_multiclass_gaussian(50, 5, 3, random_state=7)
        b = make_multiclass_gaussian(50, 5, 3, random_state=7)
        np.testing.assert_allclose(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = make_multiclass_gaussian(50, 5, 3, random_state=1)
        b = make_multiclass_gaussian(50, 5, 3, random_state=2)
        assert not np.allclose(a.X, b.X)

    def test_condition_number_controls_scale_spread(self):
        well = make_multiclass_gaussian(
            2000, 20, 3, condition_number=1.0, class_separation=0.0, random_state=0
        )
        ill = make_multiclass_gaussian(
            2000, 20, 3, condition_number=1e4, class_separation=0.0, random_state=0
        )
        spread_well = well.X.std(axis=0).max() / well.X.std(axis=0).min()
        spread_ill = ill.X.std(axis=0).max() / ill.X.std(axis=0).min()
        assert spread_ill > 10 * spread_well

    def test_label_noise_zero_gives_separable_ish_labels(self):
        ds = make_multiclass_gaussian(
            500, 10, 3, class_separation=8.0, label_noise=0.0, random_state=0
        )
        # With huge separation and no noise, class means should be far apart.
        means = np.array([ds.X[ds.y == c].mean(axis=0) for c in range(3)])
        dists = np.linalg.norm(means[0] - means[1])
        assert dists > 1.0

    def test_invalid_classes(self):
        with pytest.raises(ValueError):
            make_multiclass_gaussian(10, 5, 1)

    def test_invalid_label_noise(self):
        with pytest.raises(ValueError):
            make_multiclass_gaussian(10, 5, 3, label_noise=1.5)

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            make_multiclass_gaussian(10, 5, 3, correlation=1.0)

    def test_invalid_condition_number(self):
        with pytest.raises(ValueError):
            make_multiclass_gaussian(10, 5, 3, condition_number=0.5)

    def test_metadata_recorded(self):
        ds = make_multiclass_gaussian(20, 5, 3, random_state=0)
        assert ds.metadata["generator"] == "make_multiclass_gaussian"


class TestBinaryMargin:
    def test_two_classes(self):
        ds = make_binary_margin(300, 10, random_state=0)
        assert ds.n_classes == 2
        assert set(np.unique(ds.y)) == {0, 1}

    def test_margin_increases_separability(self):
        lo = make_binary_margin(3000, 10, margin=0.1, label_noise=0.0, random_state=0)
        hi = make_binary_margin(3000, 10, margin=5.0, label_noise=0.0, random_state=0)

        def best_linear_accuracy(ds):
            # crude least-squares separator
            y = 2.0 * ds.y - 1.0
            w, *_ = np.linalg.lstsq(ds.X, y, rcond=None)
            return np.mean((ds.X @ w > 0) == (y > 0))

        assert best_linear_accuracy(hi) > best_linear_accuracy(lo) + 0.1

    def test_deterministic(self):
        a = make_binary_margin(50, 4, random_state=3)
        b = make_binary_margin(50, 4, random_state=3)
        np.testing.assert_allclose(a.X, b.X)

    def test_both_classes_present(self):
        ds = make_binary_margin(500, 10, random_state=0)
        counts = ds.class_counts()
        assert counts.min() > 50


class TestSparseMulticlass:
    def test_sparse_output(self):
        ds = make_sparse_multiclass(100, 500, 5, density=0.02, random_state=0)
        assert sp.issparse(ds.X)
        assert ds.X.shape == (100, 500)
        assert ds.n_classes == 5

    def test_density_respected(self):
        ds = make_sparse_multiclass(200, 1000, 4, density=0.01, random_state=0)
        actual_density = ds.X.nnz / (200 * 1000)
        assert actual_density <= 0.015
        assert actual_density >= 0.003

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            make_sparse_multiclass(10, 100, 3, density=0.0)

    def test_deterministic(self):
        a = make_sparse_multiclass(50, 200, 3, random_state=9)
        b = make_sparse_multiclass(50, 200, 3, random_state=9)
        assert (a.X != b.X).nnz == 0
        np.testing.assert_array_equal(a.y, b.y)

    def test_all_classes_present(self):
        ds = make_sparse_multiclass(400, 500, 5, random_state=0)
        assert ds.class_counts().min() > 0

    def test_signal_is_learnable(self):
        # A least-squares one-vs-rest readout should beat chance comfortably.
        ds = make_sparse_multiclass(
            400, 300, 3, density=0.05, label_noise=0.0, random_state=0
        )
        X = np.asarray(ds.X.todense())
        Y = np.eye(3)[ds.y]
        W, *_ = np.linalg.lstsq(X, Y, rcond=None)
        acc = np.mean(np.argmax(X @ W, axis=1) == ds.y)
        assert acc > 0.55


class TestPeakAllocation:
    """A dense generator builds its output in place: its traced peak stays
    within a quarter of the output on top of the output itself."""

    @pytest.mark.parametrize(
        "make, args, kwargs",
        [
            (make_multiclass_gaussian, (4000, 784, 10), {"correlation": 0.2}),
            (make_binary_margin, (20000, 28), {}),
        ],
        ids=["multiclass_gaussian", "binary_margin"],
    )
    def test_peak_is_close_to_the_output(self, make, args, kwargs):
        tracemalloc.start()
        try:
            ds = make(*args, random_state=0, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ds.X.nbytes

    def test_block_size_cannot_change_the_result(self, monkeypatch):
        kwargs = dict(correlation=0.6, condition_number=1e4, random_state=3)
        whole = make_multiclass_gaussian(37, 11, 4, **kwargs)
        for block_bytes in (1, 8 * 11 * 5, 8 * 11 * 36):
            monkeypatch.setattr(synthetic, "BLOCK_BYTES", block_bytes)
            blocked = make_multiclass_gaussian(37, 11, 4, **kwargs)
            np.testing.assert_array_equal(blocked.X, whole.X)
            np.testing.assert_array_equal(blocked.y, whole.y)
