"""Tests for sub-sampled Newton."""

import numpy as np
import pytest

from repro.objectives.base import RegularizedObjective
from repro.objectives.logistic import BinaryLogistic
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.newton_cg import NewtonCG
from repro.solvers.subsampled_newton import SubsampledNewton


def softmax_problem(n=120, p=10, C=3, lam=1e-2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.integers(0, C, size=n)
    loss = SoftmaxCrossEntropy(X, y, C)
    return RegularizedObjective(loss, L2Regularizer(loss.dim, lam))


def logistic_problem(n=150, p=12, lam=1e-2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    w_true = rng.standard_normal(p)
    y = (X @ w_true + 0.3 * rng.standard_normal(n) > 0).astype(int)
    loss = BinaryLogistic(X, y)
    return RegularizedObjective(loss, L2Regularizer(p, lam))


class TestSubsampledNewton:
    def test_full_fraction_matches_newton_cg(self):
        objective = softmax_problem(seed=1)
        newton = NewtonCG(max_iterations=40, grad_tol=1e-9, cg_max_iter=50, cg_tol=1e-8)
        sub = SubsampledNewton(
            hessian_sample_fraction=1.0,
            max_iterations=40,
            grad_tol=1e-9,
            cg_max_iter=50,
            cg_tol=1e-8,
        )
        f_newton = newton.minimize(objective).objective
        f_sub = sub.minimize(objective).objective
        assert f_sub == pytest.approx(f_newton, abs=1e-6)

    def test_subsampled_reaches_good_objective(self):
        objective = softmax_problem(n=300, seed=2)
        reference = NewtonCG(max_iterations=80, grad_tol=1e-10, cg_max_iter=80, cg_tol=1e-10)
        f_star = reference.minimize(objective).objective
        solver = SubsampledNewton(
            hessian_sample_fraction=0.3,
            max_iterations=60,
            grad_tol=1e-8,
            cg_max_iter=25,
            cg_tol=1e-6,
            random_state=0,
        )
        result = solver.minimize(objective)
        assert result.objective <= f_star + 1e-3

    def test_works_on_logistic(self):
        objective = logistic_problem()
        result = SubsampledNewton(
            hessian_sample_fraction=0.5, max_iterations=30, random_state=1
        ).minimize(objective)
        assert np.isfinite(result.objective)
        assert result.grad_norm < 1e-2

    def test_deterministic_given_seed(self):
        objective = softmax_problem(seed=7)
        a = SubsampledNewton(hessian_sample_fraction=0.2, max_iterations=10, random_state=3)
        b = SubsampledNewton(hessian_sample_fraction=0.2, max_iterations=10, random_state=3)
        np.testing.assert_array_equal(a.minimize(objective).w, b.minimize(objective).w)

    def test_sample_size_bounds(self):
        solver = SubsampledNewton(hessian_sample_fraction=0.01, min_hessian_samples=25)
        assert solver._sample_size(1000) == 25
        assert solver._sample_size(10) == 10
        solver = SubsampledNewton(hessian_sample_fraction=0.5)
        assert solver._sample_size(100) == 50

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            SubsampledNewton(hessian_sample_fraction=0.0)
        with pytest.raises(ValueError):
            SubsampledNewton(hessian_sample_fraction=1.5)
        with pytest.raises(ValueError):
            SubsampledNewton(min_hessian_samples=0)

    def test_rejects_objective_without_minibatch(self):
        class Opaque:
            dim = 3
            n_samples = 10

            def value(self, w):
                return 0.0

            def gradient(self, w):
                return np.zeros(3)

            def hvp(self, w, v):
                return v

            def value_and_gradient(self, w):
                return 0.0, np.zeros(3)

            def initial_point(self):
                return np.zeros(3)

        with pytest.raises(TypeError):
            SubsampledNewton().minimize(Opaque())

    def test_hessian_samples_recorded(self):
        objective = softmax_problem(seed=8)
        result = SubsampledNewton(
            hessian_sample_fraction=0.25, max_iterations=3, random_state=0
        ).minimize(objective)
        assert result.info["hessian_sample_size"] == 30
        for record in result.records:
            assert record.extras["hessian_samples"] == 30
