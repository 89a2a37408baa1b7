"""Block CG and batched Hessian-vector products.

``block_conjugate_gradient`` runs every right-hand side through the exact
scalar CG recurrence in unison — one batched ``matmat`` per iteration —
so each column must agree with its own scalar solve up to GEMM
reassociation, and the 1-D routing through ``conjugate_gradient(...,
block=True)`` must be *bit*-identical to the scalar path (which is what
makes the solvers' ``cg_block`` flag safe to flip).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.admm.newton_admm import NewtonADMM
from repro.baselines.giant import GIANT
from repro.distributed.cluster import SimulatedCluster
from repro.linalg.cg import block_conjugate_gradient, conjugate_gradient
from repro.linalg.operators import (
    BatchedHessianOperator,
    DiagonalOperator,
    MatrixOperator,
)
from repro.objectives.base import (
    LinearlyPerturbedObjective,
    RegularizedObjective,
)
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.newton_cg import NewtonCG


def _spd_problem(dim=12, n_rhs=4, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim))
    A = M @ M.T + dim * np.eye(dim)
    B = rng.standard_normal((dim, n_rhs))
    return MatrixOperator(A), A, B


def _softmax_objective(n=90, p=7, c=4, seed=0, sparse=False, lam=1e-3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if sparse:
        X[X < 0.3] = 0.0
        X = sp.csr_matrix(X)
    y = rng.integers(0, c, size=n)
    y[:c] = np.arange(c)
    loss = SoftmaxCrossEntropy(X, y, c)
    return RegularizedObjective(loss, L2Regularizer(loss.dim, lam))


class TestBlockCG:
    def test_matches_per_column_scalar_solves(self):
        op, A, B = _spd_problem()
        result = block_conjugate_gradient(op, B, tol=1e-12, max_iter=200)
        assert result.converged
        for j in range(B.shape[1]):
            scalar = conjugate_gradient(op, B[:, j], tol=1e-12, max_iter=200)
            np.testing.assert_allclose(
                result.X[:, j], scalar.x, rtol=1e-8, atol=1e-10
            )

    def test_solves_the_systems(self):
        op, A, B = _spd_problem()
        result = block_conjugate_gradient(op, B, tol=1e-12, max_iter=200)
        np.testing.assert_allclose(A @ result.X, B, rtol=1e-7, atol=1e-8)

    def test_one_dim_rhs_with_block_flag_is_bit_identical(self):
        op, _, B = _spd_problem()
        b = B[:, 0]
        plain = conjugate_gradient(op, b, tol=1e-10, max_iter=50)
        routed = conjugate_gradient(op, b, tol=1e-10, max_iter=50, block=True)
        np.testing.assert_array_equal(plain.x, routed.x)
        assert plain.n_iterations == routed.n_iterations

    def test_two_dim_rhs_without_block_flag_raises(self):
        op, _, B = _spd_problem()
        with pytest.raises(ValueError, match="block"):
            conjugate_gradient(op, B, tol=1e-10, max_iter=50)

    def test_block_flag_routes_two_dim_rhs(self):
        op, A, B = _spd_problem()
        result = conjugate_gradient(op, B, tol=1e-12, max_iter=200, block=True)
        np.testing.assert_allclose(A @ result.X, B, rtol=1e-7, atol=1e-8)

    def test_columns_converge_independently(self):
        """An easy column freezes while a hard one keeps iterating."""
        diag = np.ones(30)
        diag[-1] = 1e4  # one stiff direction
        op = DiagonalOperator(diag)
        B = np.zeros((30, 2))
        B[0, 0] = 1.0  # trivially solved in one iteration
        B[:, 1] = np.ones(30)
        result = block_conjugate_gradient(op, B, tol=1e-10, max_iter=50)
        assert result.converged
        assert result.column_converged.all()
        np.testing.assert_allclose(result.X * diag[:, None], B, atol=1e-8)

    def test_negative_curvature_column_falls_back_to_rhs(self):
        """First-iteration negative curvature returns b for that column —
        the same gradient-direction fallback the scalar solver uses."""
        diag = np.ones(8)
        diag[3] = -2.0
        op = DiagonalOperator(diag)
        rng = np.random.default_rng(1)
        B = rng.standard_normal((8, 2))
        scalar = conjugate_gradient(op, B[:, 0], tol=1e-10, max_iter=30)
        blocked = block_conjugate_gradient(op, B, tol=1e-10, max_iter=30)
        np.testing.assert_allclose(blocked.X[:, 0], scalar.x, rtol=1e-8)

    def test_exit_reasons_per_column(self):
        """Each column reports why it stopped, and matches its scalar solve."""
        diag = np.append(np.arange(1.0, 10.0), -1.0)
        op = DiagonalOperator(diag)
        B = np.zeros((10, 4))  # column 0: b = 0
        B[0, 1] = 1.0  # one eigen-direction: solved in one iteration
        B[:9, 2] = 1.0  # nine distinct eigenvalues: needs nine iterations
        B[9, 3] = 1.0  # the negative direction
        result = block_conjugate_gradient(op, B, tol=1e-10, max_iter=3)
        assert result.exit_reasons == [
            "zero_rhs", "tolerance", "max_iter", "nonpositive_curvature"
        ]
        np.testing.assert_array_equal(result.X[:, 3], B[:, 3])
        for j in range(4):
            scalar = conjugate_gradient(op, B[:, j], tol=1e-10, max_iter=3)
            assert scalar.exit_reason == result.exit_reasons[j]

    def test_preconditioned_block_matches_scalar(self):
        op, A, B = _spd_problem(seed=3)
        pre = DiagonalOperator(1.0 / np.diag(A))
        blocked = block_conjugate_gradient(
            op, B, tol=1e-12, max_iter=200, preconditioner=pre
        )
        for j in range(B.shape[1]):
            scalar = conjugate_gradient(
                op, B[:, j], tol=1e-12, max_iter=200, preconditioner=pre
            )
            np.testing.assert_allclose(
                blocked.X[:, j], scalar.x, rtol=1e-8, atol=1e-10
            )

    def test_float32_block_stays_float32(self):
        op32 = MatrixOperator(
            (np.eye(6) * 3.0 + 0.1 * np.ones((6, 6))).astype(np.float32)
        )
        B = np.random.default_rng(0).standard_normal((6, 2)).astype(np.float32)
        result = block_conjugate_gradient(op32, B, tol=1e-5, max_iter=30)
        assert result.X.dtype == np.float32

    def test_mixed_dtype_block_raises(self):
        op32 = MatrixOperator(np.eye(4, dtype=np.float32))
        B64 = np.ones((4, 2), dtype=np.float64)
        with pytest.raises(TypeError, match="mixed dtypes"):
            block_conjugate_gradient(op32, B64, tol=1e-6, max_iter=10)


class TestBatchedHVP:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_hvp_mat_matches_looped_hvp(self, sparse):
        obj = _softmax_objective(sparse=sparse)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(obj.dim) * 0.1
        V = rng.standard_normal((obj.dim, 5))
        M = obj.hvp_mat(w, V)
        assert M.shape == V.shape
        for j in range(V.shape[1]):
            np.testing.assert_allclose(
                M[:, j], obj.hvp(w, V[:, j]), rtol=1e-9, atol=1e-12
            )

    def test_hvp_mat_through_wrappers(self):
        base = _softmax_objective()
        rng = np.random.default_rng(3)
        obj = LinearlyPerturbedObjective(
            base,
            rng.standard_normal(base.dim),
            mu=0.5,
            center=rng.standard_normal(base.dim),
        )
        w = rng.standard_normal(obj.dim) * 0.1
        V = rng.standard_normal((obj.dim, 3))
        M = obj.hvp_mat(w, V)
        for j in range(V.shape[1]):
            np.testing.assert_allclose(
                M[:, j], obj.hvp(w, V[:, j]), rtol=1e-9, atol=1e-12
            )

    def test_operator_counts_one_matvec_per_column(self):
        obj = _softmax_objective()
        w = np.zeros(obj.dim)
        op = BatchedHessianOperator(obj, w)
        V = np.random.default_rng(4).standard_normal((obj.dim, 6))
        op.matmat(V)
        assert op.n_matvecs == 6
        op.matvec(V[:, 0])
        assert op.n_matvecs == 7

    def test_operator_rejects_bad_shapes(self):
        obj = _softmax_objective()
        op = BatchedHessianOperator(obj, np.zeros(obj.dim))
        with pytest.raises(ValueError):
            op.matmat(np.zeros(obj.dim))  # 1-D
        with pytest.raises(ValueError):
            op.matmat(np.zeros((obj.dim + 1, 2)))  # wrong leading dim

    def test_per_class_hvp_agrees_with_batched(self):
        obj = _softmax_objective()
        loss = obj.loss
        rng = np.random.default_rng(5)
        w = rng.standard_normal(obj.dim) * 0.1
        v = rng.standard_normal(obj.dim)
        np.testing.assert_allclose(
            loss.hvp_per_class(w, v), loss.hvp(w, v), rtol=1e-10, atol=1e-13
        )


class TestSolverOptIn:
    """``cg_block=True`` changes per-iteration cost, not results."""

    def test_newton_cg_iterates_bit_identical(self):
        obj = _softmax_objective(n=200, p=10, c=4, seed=7)
        plain = NewtonCG(max_iterations=5, cg_max_iter=20).minimize(obj)
        blocked = NewtonCG(
            max_iterations=5, cg_max_iter=20, cg_block=True
        ).minimize(obj)
        # Single-RHS solves route through the scalar path: bit-identical.
        np.testing.assert_array_equal(plain.w, blocked.w)

    def test_newton_admm_converges_with_block_cg(self, small_multiclass_split):
        train, _ = small_multiclass_split
        cluster = SimulatedCluster(train, 4, random_state=0)
        plain = NewtonADMM(lam=1e-4, max_epochs=6).fit(cluster)
        blocked = NewtonADMM(lam=1e-4, max_epochs=6, cg_block=True).fit(cluster)
        np.testing.assert_array_equal(plain.final_w, blocked.final_w)

    def test_giant_converges_with_block_cg(self, small_multiclass_split):
        train, _ = small_multiclass_split
        cluster = SimulatedCluster(train, 4, random_state=0)
        plain = GIANT(lam=1e-3, max_epochs=4).fit(cluster)
        blocked = GIANT(lam=1e-3, max_epochs=4, cg_block=True).fit(cluster)
        np.testing.assert_array_equal(plain.final_w, blocked.final_w)
