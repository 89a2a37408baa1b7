"""Tests for the smoothed L1 and elastic-net regularizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectives.regularizers import (
    ElasticNetRegularizer,
    L2Regularizer,
    SmoothedL1Regularizer,
)
from repro.objectives.base import RegularizedObjective
from repro.objectives.logistic import BinaryLogistic
from repro.solvers.newton_cg import NewtonCG


def finite_difference_gradient(objective, w, eps=1e-6):
    grad = np.zeros_like(w)
    for j in range(w.shape[0]):
        e = np.zeros_like(w)
        e[j] = eps
        grad[j] = (objective.value(w + e) - objective.value(w - e)) / (2 * eps)
    return grad


class TestSmoothedL1Regularizer:
    def test_value_approaches_l1_for_small_mu(self):
        reg = SmoothedL1Regularizer(4, lam=1.0, mu=1e-8)
        w = np.array([1.0, -2.0, 0.5, 0.0])
        assert reg.value(w) == pytest.approx(np.abs(w).sum(), abs=1e-5)

    def test_gradient_matches_finite_differences(self):
        reg = SmoothedL1Regularizer(5, lam=0.7, mu=1e-2)
        w = np.random.default_rng(0).standard_normal(5)
        np.testing.assert_allclose(
            reg.gradient(w), finite_difference_gradient(reg, w), atol=1e-6
        )

    def test_hvp_matches_dense_hessian(self):
        reg = SmoothedL1Regularizer(4, lam=0.3, mu=0.05)
        w = np.random.default_rng(1).standard_normal(4)
        H = reg.hessian(w)
        v = np.random.default_rng(2).standard_normal(4)
        np.testing.assert_allclose(reg.hvp(w, v), H @ v, atol=1e-10)

    def test_gradient_bounded_by_lam(self):
        reg = SmoothedL1Regularizer(3, lam=2.0, mu=1e-3)
        w = np.array([100.0, -50.0, 0.0])
        g = reg.gradient(w)
        assert np.all(np.abs(g) <= 2.0 + 1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SmoothedL1Regularizer(0, lam=1.0)
        with pytest.raises(ValueError):
            SmoothedL1Regularizer(3, lam=1.0, mu=0.0)
        with pytest.raises(ValueError):
            SmoothedL1Regularizer(3, lam=-1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), mu=st.floats(1e-4, 1e-1))
    def test_property_value_below_l1(self, seed, mu):
        # sqrt(w^2 + mu^2) - mu <= |w| for every entry.
        reg = SmoothedL1Regularizer(6, lam=1.0, mu=mu)
        w = np.random.default_rng(seed).standard_normal(6)
        assert reg.value(w) <= np.abs(w).sum() + 1e-12


class TestElasticNetRegularizer:
    def test_reduces_to_ridge_when_l1_zero(self):
        enet = ElasticNetRegularizer(5, lam_ridge=0.3, lam_l1=0.0)
        ridge = L2Regularizer(5, 0.3)
        w = np.random.default_rng(0).standard_normal(5)
        assert enet.value(w) == pytest.approx(ridge.value(w))
        np.testing.assert_allclose(enet.gradient(w), ridge.gradient(w))

    def test_combines_both_terms(self):
        enet = ElasticNetRegularizer(4, lam_ridge=0.5, lam_l1=0.25, mu=1e-3)
        ridge = L2Regularizer(4, 0.5)
        l1 = SmoothedL1Regularizer(4, 0.25, mu=1e-3)
        w = np.random.default_rng(1).standard_normal(4)
        assert enet.value(w) == pytest.approx(ridge.value(w) + l1.value(w))
        np.testing.assert_allclose(enet.gradient(w), ridge.gradient(w) + l1.gradient(w))
        v = np.random.default_rng(2).standard_normal(4)
        np.testing.assert_allclose(enet.hvp(w, v), ridge.hvp(w, v) + l1.hvp(w, v))

    def test_gradient_matches_finite_differences(self):
        enet = ElasticNetRegularizer(6, lam_ridge=0.1, lam_l1=0.2, mu=1e-2)
        w = np.random.default_rng(3).standard_normal(6)
        np.testing.assert_allclose(
            enet.gradient(w), finite_difference_gradient(enet, w), atol=1e-6
        )

    def test_sparsity_pressure_shrinks_weights(self):
        # Training logistic regression with elastic net should give smaller
        # weights than ridge alone at equal ridge strength.
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 8))
        y = (X[:, 0] * 2.0 + 0.5 * rng.standard_normal(60) > 0).astype(int)
        loss = BinaryLogistic(X, y)
        ridge_only = NewtonCG(max_iterations=50).minimize(
            RegularizedObjective(loss, L2Regularizer(8, 1e-3))
        )
        with_l1 = NewtonCG(max_iterations=50).minimize(
            RegularizedObjective(loss, ElasticNetRegularizer(8, 1e-3, 0.5, mu=1e-4))
        )
        assert np.abs(with_l1.w[1:]).sum() < np.abs(ridge_only.w[1:]).sum()

    def test_flops_positive(self):
        enet = ElasticNetRegularizer(10, lam_ridge=0.1, lam_l1=0.1)
        assert enet.flops_value() > 0
        assert enet.flops_gradient() > 0
        assert enet.flops_hvp() > 0

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            ElasticNetRegularizer(0, lam_ridge=0.1, lam_l1=0.1)
