"""Tests for the line search and the inexact Newton-CG solver (Algorithms 1/3)."""

import numpy as np
import pytest

from repro.objectives.base import Objective, RegularizedObjective
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.base import CountingObjective
from repro.solvers.line_search import armijo_backtracking
from repro.solvers.newton_cg import NewtonCG


def quadratic(w):
    return float(0.5 * w @ w)


class Quadratic(Objective):
    """``0.5 w^T A w - b^T w``: a constant Hessian ``A``."""

    def __init__(self, A, b):
        self.A = A
        self.b = b
        self.dim = b.shape[0]

    def value(self, w):
        return float(0.5 * w @ self.A @ w - self.b @ w)

    def gradient(self, w):
        return self.A @ w - self.b

    def hvp(self, w, v):
        return self.A @ v


class TestArmijoBacktracking:
    def test_full_step_accepted_for_newton_on_quadratic(self):
        x = np.array([3.0, -2.0])
        g = x.copy()
        p = -x  # exact Newton step
        result = armijo_backtracking(quadratic, x, p, g, quadratic(x))
        assert result.success
        assert result.step_size == 1.0
        assert result.f_new == pytest.approx(0.0)

    def test_backtracks_on_too_long_direction(self):
        x = np.array([1.0, 1.0])
        g = x.copy()
        p = -100.0 * x
        result = armijo_backtracking(quadratic, x, p, g, quadratic(x))
        assert result.success
        assert result.step_size < 1.0
        assert result.f_new < quadratic(x)

    def test_non_descent_direction_falls_back_to_gradient(self):
        x = np.array([1.0, 0.0])
        g = x.copy()
        p = g.copy()  # ascent direction
        result = armijo_backtracking(quadratic, x, p, g, quadratic(x))
        assert result.f_new <= quadratic(x)

    def test_ascent_direction_returns_the_point_it_searched(self):
        """With ``p @ g > 0`` the search runs along ``-g``: the accepted point
        is ``x - alpha * g`` and lowers ``f``, whereas ``x + alpha * p`` — what
        a caller rebuilding the step from ``step_size`` would take — raises it."""
        x = np.array([1.0, -2.0])
        g = x.copy()
        p = 3.0 * g  # hand-made ascent direction
        result = armijo_backtracking(quadratic, x, p, g, quadratic(x))
        assert result.step_size > 0
        np.testing.assert_array_equal(result.x_new, x - result.step_size * g)
        assert quadratic(result.x_new) == result.f_new < quadratic(x)
        assert quadratic(x + result.step_size * p) > quadratic(x)

    def test_accepted_point_is_the_array_last_evaluated(self):
        """Identity, not equality: an identity-keyed forward cache filled by
        the last trial must still be warm for the point handed back."""
        seen = []

        def f(w):
            seen.append(w)
            return quadratic(w)

        x = np.array([1.0, 1.0])
        result = armijo_backtracking(f, x, -100.0 * x, x, quadratic(x))
        assert result.n_evaluations > 1
        assert result.x_new is seen[-1]
        rejected = armijo_backtracking(
            quadratic, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), 0.0,
            accept_on_failure=False,
        )
        assert rejected.step_size == 0.0 and rejected.x_new is None

    def test_computes_fx_if_missing(self):
        x = np.array([2.0])
        result = armijo_backtracking(quadratic, x, -x, x)
        assert result.success

    def test_zero_step_when_no_progress_possible(self):
        # minimum already reached -> every step increases f
        x = np.zeros(2)
        g = np.zeros(2)
        result = armijo_backtracking(
            quadratic, x, np.array([1.0, 0.0]), g, 0.0, accept_on_failure=False
        )
        assert result.step_size == 0.0
        assert result.f_new == 0.0

    def test_evaluation_count_bounded(self):
        x = np.array([1.0, 1.0])
        result = armijo_backtracking(
            quadratic, x, -1e6 * x, x, quadratic(x), max_iter=10
        )
        assert result.n_evaluations <= 12

    def test_invalid_parameters_rejected(self):
        x = np.zeros(2)
        with pytest.raises(ValueError):
            armijo_backtracking(quadratic, x, -x, x, alpha0=-1.0)
        with pytest.raises(ValueError):
            armijo_backtracking(quadratic, x, -x, x, beta=2.0)
        with pytest.raises(ValueError):
            armijo_backtracking(quadratic, x, -x, x, max_iter=-3)


@pytest.fixture()
def softmax_objective():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 6))
    y = rng.integers(0, 3, size=80)
    loss = SoftmaxCrossEntropy(X, y, 3)
    return RegularizedObjective(loss, L2Regularizer(loss.dim, 1e-3))


class TestNewtonCG:
    def test_quadratic_solved_in_one_iteration(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 5))
        b = rng.standard_normal(40)
        A, rhs = X.T @ X / 40, X.T @ b / 40
        obj = RegularizedObjective(Quadratic(A, rhs), L2Regularizer(5, 0.1))
        result = NewtonCG(max_iterations=5, cg_max_iter=50, cg_tol=1e-12).minimize(obj)
        # closed-form: (A + 0.1 I) w = rhs
        w_star = np.linalg.solve(A + 0.1 * np.eye(5), rhs)
        np.testing.assert_allclose(result.w, w_star, atol=1e-5)
        assert result.n_iterations <= 2

    def test_softmax_converges_to_small_gradient(self, softmax_objective):
        result = NewtonCG(
            max_iterations=50, grad_tol=1e-8, cg_max_iter=50, cg_tol=1e-8
        ).minimize(softmax_objective)
        assert result.converged
        assert result.grad_norm <= 1e-6

    def test_records_carry_cg_exit_reason(self, softmax_objective):
        capped = NewtonCG(max_iterations=3, cg_max_iter=1, cg_tol=1e-12).minimize(
            softmax_objective
        )
        assert [r.extras["cg_exit_reason"] for r in capped.records] == ["max_iter"] * 3
        assert capped.info["cg_exit_reasons"] == ["max_iter"] * 3
        loose = NewtonCG(max_iterations=3, cg_max_iter=50, cg_tol=0.5).minimize(
            softmax_objective
        )
        assert {r.extras["cg_exit_reason"] for r in loose.records} == {"tolerance"}

    def test_objective_monotone_decrease(self, softmax_objective):
        result = NewtonCG(max_iterations=20, cg_max_iter=10).minimize(softmax_objective)
        objs = result.objective_trace()
        assert np.all(np.diff(objs) <= 1e-12)

    def test_warm_start_at_optimum_stops_immediately(self, softmax_objective):
        first = NewtonCG(max_iterations=50, cg_max_iter=50, grad_tol=1e-10).minimize(
            softmax_objective
        )
        second = NewtonCG(max_iterations=50, grad_tol=1e-6).minimize(
            softmax_objective, first.w
        )
        assert second.n_iterations == 0
        assert second.converged

    def test_records_contain_cg_diagnostics(self, softmax_objective):
        result = NewtonCG(max_iterations=3, cg_max_iter=5).minimize(softmax_objective)
        assert len(result.records) == result.n_iterations
        for rec in result.records:
            assert "cg_iterations" in rec.extras
            assert rec.extras["cg_iterations"] <= 5

    def test_small_cg_budget_still_descends(self, softmax_objective):
        result = NewtonCG(max_iterations=10, cg_max_iter=2).minimize(softmax_objective)
        assert result.objective < softmax_objective.value(np.zeros(softmax_objective.dim))

    def test_callback_invoked(self, softmax_objective):
        calls = []
        NewtonCG(max_iterations=3).minimize(
            softmax_objective, callback=lambda rec, w: calls.append(rec.iteration)
        )
        assert calls == list(range(len(calls)))
        assert len(calls) >= 1

    def test_wrong_w0_length_rejected(self, softmax_objective):
        with pytest.raises(ValueError):
            NewtonCG().minimize(softmax_objective, np.zeros(3))

    def test_invalid_cg_budget_rejected(self):
        with pytest.raises(ValueError):
            NewtonCG(cg_max_iter=0)

    def test_rel_obj_tol_stops_early(self, softmax_objective):
        result = NewtonCG(max_iterations=100, rel_obj_tol=1e-2, grad_tol=0.0).minimize(
            softmax_objective
        )
        assert result.n_iterations < 100

    def test_counting_objective_tracks_evaluations(self, softmax_objective):
        counted = CountingObjective(softmax_objective)
        NewtonCG(max_iterations=3, cg_max_iter=5).minimize(counted)
        counters = counted.counters()
        assert counters["n_gradient"] >= 3
        assert counters["n_hvp"] >= 3
        assert counters["flops"] > 0


class TestCountingObjective:
    def test_counts_and_reset(self, softmax_objective):
        counted = CountingObjective(softmax_objective)
        w = np.zeros(counted.dim)
        counted.value(w)
        counted.gradient(w)
        counted.hvp(w, np.ones(counted.dim))
        counted.value_and_gradient(w)
        c = counted.counters()
        assert c["n_value"] == 2
        assert c["n_gradient"] == 2
        assert c["n_hvp"] == 1
        counted.reset_counters()
        assert counted.counters()["flops"] == 0.0

    def test_values_match_base(self, softmax_objective):
        counted = CountingObjective(softmax_objective)
        w = np.random.default_rng(2).standard_normal(counted.dim) * 0.1
        np.testing.assert_allclose(counted.value(w), softmax_objective.value(w))
        np.testing.assert_allclose(counted.gradient(w), softmax_objective.gradient(w))

    def test_add_flops(self, softmax_objective):
        counted = CountingObjective(softmax_objective)
        counted.add_flops(100.0)
        assert counted.flops == 100.0
        with pytest.raises(ValueError):
            counted.add_flops(-1.0)
