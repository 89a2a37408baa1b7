"""Tests for the Hessian-diagonal estimate and the CG preconditioners."""

import numpy as np
import pytest

from repro.linalg.cg import conjugate_gradient
from repro.linalg.operators import MatrixOperator
from repro.linalg.preconditioners import (
    RegularizerPreconditioner,
    estimate_hessian_diagonal,
    hessian_jacobi_preconditioner,
    jacobi_preconditioner,
    make_preconditioner,
)
from repro.objectives.base import RegularizedObjective
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy


def small_softmax_objective(lam=1e-2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 6))
    y = rng.integers(0, 3, size=40)
    loss = SoftmaxCrossEntropy(X, y, 3)
    return RegularizedObjective(loss, L2Regularizer(loss.dim, lam))


class TestPreconditioners:
    def test_diagonal_estimate_unbiased_on_diagonal_matrix(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])

        class DiagObjective:
            dim = 4

            def hvp(self, w, v):
                return d * np.asarray(v)

        est = estimate_hessian_diagonal(DiagObjective(), np.zeros(4), n_probes=5, random_state=0)
        # For a diagonal operator every Rademacher probe recovers the diagonal exactly.
        np.testing.assert_allclose(est, d)

    def test_diagonal_estimate_close_on_softmax(self):
        objective = small_softmax_objective(lam=1e-2)
        w = np.zeros(objective.dim)
        est = estimate_hessian_diagonal(objective, w, n_probes=200, random_state=0)
        truth = np.diag(objective.hessian(w))
        assert np.corrcoef(est, truth)[0, 1] > 0.7

    def test_jacobi_preconditioner_inverts_diagonal(self):
        prec = jacobi_preconditioner(np.array([2.0, 4.0]), damping=0.0)
        np.testing.assert_allclose(prec.matvec(np.array([2.0, 4.0])), np.ones(2))

    def test_jacobi_floor_guards_nonpositive_entries(self):
        prec = jacobi_preconditioner(np.array([-1.0, 0.0, 1.0]), floor=1e-6)
        out = prec.matvec(np.ones(3))
        assert np.all(np.isfinite(out))
        assert np.all(out > 0)

    def test_damping_validation(self):
        with pytest.raises(ValueError):
            jacobi_preconditioner(np.ones(3), damping=-1.0)
        with pytest.raises(ValueError):
            estimate_hessian_diagonal(small_softmax_objective(), np.zeros(12), n_probes=0)

    def test_preconditioned_cg_converges_faster_on_illconditioned_diag(self):
        d = np.logspace(0, 5, 40)
        A = np.diag(d)
        b = np.ones(40)
        plain = conjugate_gradient(MatrixOperator(A), b, tol=1e-8, max_iter=200)
        prec = conjugate_gradient(
            MatrixOperator(A),
            b,
            tol=1e-8,
            max_iter=200,
            preconditioner=jacobi_preconditioner(d),
        )
        assert prec.n_iterations < plain.n_iterations

    def test_regularizer_preconditioner(self):
        prec = RegularizerPreconditioner(5, shift=2.0)
        np.testing.assert_allclose(prec.matvec(np.full(5, 2.0)), np.ones(5))
        with pytest.raises(ValueError):
            RegularizerPreconditioner(5, shift=0.0)

    def test_make_preconditioner_dispatch(self):
        objective = small_softmax_objective()
        w = np.zeros(objective.dim)
        assert make_preconditioner(None, objective, w) is None
        assert make_preconditioner("none", objective, w) is None
        jac = make_preconditioner("jacobi", objective, w, damping=1e-2, random_state=0)
        assert jac is not None and jac.dim == objective.dim
        shift = make_preconditioner("shift", objective, w, damping=0.5)
        assert shift is not None
        with pytest.raises(ValueError):
            make_preconditioner("unknown", objective, w)

    def test_hessian_jacobi_preconditioner_dim(self):
        objective = small_softmax_objective()
        prec = hessian_jacobi_preconditioner(
            objective, np.zeros(objective.dim), n_probes=3, damping=1e-2, random_state=0
        )
        assert prec.dim == objective.dim
