"""Tests for conjugate gradient and linear operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.cg import conjugate_gradient
from repro.linalg.operators import (
    DiagonalOperator,
    HessianOperator,
    LinearOperator,
    MatrixOperator,
)
from repro.objectives.softmax import SoftmaxCrossEntropy


def random_spd(dim, cond=10.0, seed=0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.logspace(0, np.log10(cond), dim)
    return Q @ np.diag(eigs) @ Q.T


class TestOperators:
    def test_matrix_operator_matches_matmul(self):
        A = random_spd(6)
        op = MatrixOperator(A)
        v = np.random.default_rng(1).standard_normal(6)
        np.testing.assert_allclose(op.matvec(v), A @ v)
        np.testing.assert_allclose(op @ v, A @ v)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            MatrixOperator(np.zeros((3, 4)))

    def test_matvec_counter(self):
        op = MatrixOperator(np.eye(3))
        op.matvec(np.ones(3))
        op.matvec(np.ones(3))
        assert op.n_matvecs == 2

    def test_wrong_length_rejected(self):
        op = MatrixOperator(np.eye(3))
        with pytest.raises(ValueError):
            op.matvec(np.ones(4))

    def test_to_dense_round_trip(self):
        A = random_spd(5)
        np.testing.assert_allclose(MatrixOperator(A).to_dense(), A, atol=1e-12)

    def test_diagonal_operator(self):
        d = np.array([1.0, 2.0, 3.0])
        op = DiagonalOperator(d)
        np.testing.assert_allclose(op.matvec(np.ones(3)), d)

    def test_hessian_operator_matches_hvp(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 4))
        y = rng.integers(0, 3, size=20)
        obj = SoftmaxCrossEntropy(X, y, 3)
        w = rng.standard_normal(obj.dim)
        op = HessianOperator(obj, w)
        v = rng.standard_normal(obj.dim)
        np.testing.assert_allclose(op.matvec(v), obj.hvp(w, v))

    def test_invalid_dim_rejected(self):
        with pytest.raises(ValueError):
            LinearOperator(0, lambda v: v)


class TestConjugateGradient:
    def test_solves_spd_system_exactly_with_enough_iterations(self):
        A = random_spd(8, cond=50.0)
        b = np.random.default_rng(0).standard_normal(8)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-12, max_iter=100)
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), atol=1e-6)
        assert result.converged

    def test_zero_rhs(self):
        result = conjugate_gradient(MatrixOperator(np.eye(4)), np.zeros(4))
        np.testing.assert_allclose(result.x, 0.0)
        assert result.converged
        assert result.n_iterations == 0

    def test_identity_system_one_iteration(self):
        b = np.random.default_rng(1).standard_normal(5)
        result = conjugate_gradient(MatrixOperator(np.eye(5)), b, tol=1e-12, max_iter=10)
        np.testing.assert_allclose(result.x, b, atol=1e-12)
        assert result.n_iterations <= 2

    def test_iteration_budget_respected(self):
        A = random_spd(30, cond=1e4, seed=2)
        b = np.random.default_rng(2).standard_normal(30)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-14, max_iter=3)
        assert result.n_iterations <= 3

    def test_relative_residual_reported(self):
        A = random_spd(10)
        b = np.random.default_rng(3).standard_normal(10)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-2, max_iter=100)
        assert result.relative_residual <= 1e-2 + 1e-12
        assert len(result.residual_history) == result.n_iterations + 1

    def test_callable_matvec_accepted(self):
        A = random_spd(6)
        b = np.ones(6)
        result = conjugate_gradient(lambda v: A @ v, b, tol=1e-10, max_iter=50)
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), atol=1e-6)

    def test_warm_start(self):
        A = random_spd(6)
        b = np.random.default_rng(4).standard_normal(6)
        x_star = np.linalg.solve(A, b)
        result = conjugate_gradient(MatrixOperator(A), b, x0=x_star, tol=1e-8, max_iter=5)
        assert result.converged
        assert result.n_iterations == 0

    def test_jacobi_preconditioner_helps_on_diagonal_system(self):
        d = np.logspace(0, 6, 40)
        A = np.diag(d)
        b = np.ones(40)
        plain = conjugate_gradient(MatrixOperator(A), b, tol=1e-8, max_iter=200)
        prec = conjugate_gradient(
            MatrixOperator(A),
            b,
            tol=1e-8,
            max_iter=200,
            preconditioner=DiagonalOperator(1.0 / d),
        )
        assert prec.n_iterations <= plain.n_iterations

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            conjugate_gradient(MatrixOperator(np.eye(2)), np.ones(2), max_iter=-1)
        with pytest.raises(ValueError):
            conjugate_gradient(MatrixOperator(np.eye(2)), np.ones(2), tol=-0.1)

    def test_residuals_monotone_enough(self):
        A = random_spd(12, cond=100.0, seed=5)
        b = np.random.default_rng(5).standard_normal(12)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-12, max_iter=50)
        history = np.array(result.residual_history)
        assert history[-1] < history[0]

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 12), seed=st.integers(0, 1000))
    def test_property_solution_matches_numpy(self, dim, seed):
        A = random_spd(dim, cond=20.0, seed=seed)
        b = np.random.default_rng(seed).standard_normal(dim)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-12, max_iter=200)
        np.testing.assert_allclose(result.x, np.linalg.solve(A, b), atol=1e-5)


class TestCGExitReasons:
    def test_well_conditioned_system_exits_on_tolerance(self):
        A = random_spd(8, cond=5.0)
        b = np.random.default_rng(5).standard_normal(8)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-8, max_iter=50)
        assert result.exit_reason == "tolerance"
        assert result.converged
        assert result.n_iterations < 50

    def test_cap_below_need_exits_on_max_iter(self):
        A = random_spd(30, cond=1e4, seed=2)
        b = np.random.default_rng(2).standard_normal(30)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-12, max_iter=3)
        assert result.exit_reason == "max_iter"
        assert not result.converged
        assert result.n_iterations == 3

    def test_indefinite_operator_exits_on_nonpositive_curvature(self):
        # p = b sees curvature 1 + 1 - 5 < 0 on the first iteration: the
        # documented fallback is b itself (steepest descent of the model).
        op = DiagonalOperator(np.array([1.0, 1.0, -5.0]))
        b = np.ones(3)
        result = conjugate_gradient(op, b, tol=1e-10, max_iter=10)
        assert result.exit_reason == "nonpositive_curvature"
        assert result.n_iterations == 0
        assert not result.converged
        np.testing.assert_array_equal(result.x, b)

    def test_zero_rhs_exits_on_zero_rhs(self):
        result = conjugate_gradient(MatrixOperator(np.eye(4)), np.zeros(4))
        assert result.exit_reason == "zero_rhs"
        assert result.n_iterations == 0
