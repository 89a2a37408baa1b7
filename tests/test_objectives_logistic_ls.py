"""Tests for the binary logistic objective."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.objectives.logistic import BinaryLogistic
from tests.conftest import numerical_gradient


@pytest.fixture()
def binary_problem():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 6))
    w_true = rng.standard_normal(6)
    y = (X @ w_true + 0.3 * rng.standard_normal(50) > 0).astype(int)
    return X, y


class TestBinaryLogistic:
    def test_value_at_zero(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        np.testing.assert_allclose(obj.value(np.zeros(6)), np.log(2), rtol=1e-12)

    def test_gradient_matches_finite_differences(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        w = np.random.default_rng(1).standard_normal(6) * 0.3
        np.testing.assert_allclose(
            obj.gradient(w), numerical_gradient(obj.value, w), atol=1e-6
        )

    def test_hvp_matches_dense_hessian(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(6) * 0.3
        H = obj.hessian(w)
        v = rng.standard_normal(6)
        np.testing.assert_allclose(obj.hvp(w, v), H @ v, atol=1e-8)

    def test_hessian_psd(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        H = obj.hessian(np.zeros(6))
        assert np.linalg.eigvalsh(H).min() >= -1e-10

    def test_requires_two_classes(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError):
            BinaryLogistic(X, np.array([0, 1, 2] + [0] * 7))

    def test_predict(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        w = np.zeros(6)
        for _ in range(200):
            w = w - 1.0 * obj.gradient(w)
        acc = np.mean(obj.predict(w) == y)
        assert acc > 0.85

    def test_predict_proba_range(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        p = obj.predict_proba(np.random.default_rng(3).standard_normal(6) * 5)
        assert np.all((p >= 0) & (p <= 1))

    def test_sparse_matches_dense(self, binary_problem):
        X, y = binary_problem
        Xs = X.copy()
        Xs[np.abs(Xs) < 0.5] = 0.0
        dense = BinaryLogistic(Xs, y)
        sparse = BinaryLogistic(sp.csr_matrix(Xs), y)
        w = np.random.default_rng(4).standard_normal(6)
        np.testing.assert_allclose(dense.value(w), sparse.value(w), rtol=1e-12)
        np.testing.assert_allclose(dense.gradient(w), sparse.gradient(w), rtol=1e-10)

    def test_value_and_gradient_consistent(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        w = np.random.default_rng(5).standard_normal(6)
        v, g = obj.value_and_gradient(w)
        np.testing.assert_allclose(v, obj.value(w))
        np.testing.assert_allclose(g, obj.gradient(w))

    def test_scale_sum(self, binary_problem):
        X, y = binary_problem
        mean = BinaryLogistic(X, y, scale="mean")
        total = BinaryLogistic(X, y, scale="sum")
        w = np.ones(6) * 0.2
        np.testing.assert_allclose(total.value(w), 50 * mean.value(w))

    def test_minibatch_is_mean_over_batch(self, binary_problem):
        X, y = binary_problem
        obj = BinaryLogistic(X, y)
        idx = np.arange(10)
        batch = obj.minibatch(idx)
        assert batch.n_samples == 10
        w = np.zeros(6)
        manual = BinaryLogistic(X[idx], y[idx]).value(w)
        assert batch.value(w) == pytest.approx(manual)
