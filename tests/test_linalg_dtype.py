"""Dtype preservation and mixed-dtype validation in the linalg layer.

The CG/HVP hot path must never silently round-trip through ``float64``:
float32 problems stay float32 end-to-end, and pairing an operator with a
vector of a different floating dtype is a loud error instead of a silent
promotion.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.cg import conjugate_gradient
from repro.linalg.operators import (
    DiagonalOperator,
    HessianOperator,
    LinearOperator,
    MatrixOperator,
)
from repro.linalg.preconditioners import RegularizerPreconditioner
from repro.objectives.logistic import BinaryLogistic


def _spd_matrix(dim, dtype, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    A = A @ A.T + dim * np.eye(dim)
    return A.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestCGDtypePreservation:
    def test_solution_keeps_input_dtype(self, dtype):
        A = _spd_matrix(8, dtype)
        b = np.arange(1.0, 9.0, dtype=dtype)
        result = conjugate_gradient(MatrixOperator(A), b, tol=1e-6, max_iter=50)
        assert result.x.dtype == dtype
        assert result.converged

    def test_x0_keeps_input_dtype(self, dtype):
        A = _spd_matrix(6, dtype)
        b = np.ones(6, dtype=dtype)
        x0 = np.full(6, 0.5, dtype=dtype)
        result = conjugate_gradient(MatrixOperator(A), b, x0=x0, tol=1e-6, max_iter=50)
        assert result.x.dtype == dtype

    def test_zero_rhs_keeps_dtype(self, dtype):
        A = _spd_matrix(4, dtype)
        result = conjugate_gradient(MatrixOperator(A), np.zeros(4, dtype=dtype))
        assert result.x.dtype == dtype
        assert result.converged and result.n_iterations == 0

    def test_matvec_output_keeps_dtype(self, dtype):
        op = MatrixOperator(_spd_matrix(5, dtype))
        out = op.matvec(np.ones(5, dtype=dtype))
        assert out.dtype == dtype

    def test_diagonal_operator_keeps_dtype(self, dtype):
        op = DiagonalOperator(np.array([1.0, 2.0, 4.0], dtype=dtype))
        out = op.matvec(np.ones(3, dtype=dtype))
        assert out.dtype == dtype

    def test_regularizer_preconditioner_keeps_dtype(self, dtype):
        prec = RegularizerPreconditioner(4, 2.0)
        out = prec.matvec(np.ones(4, dtype=dtype))
        assert out.dtype == dtype


class TestMixedDtypeValidation:
    def test_operator_float64_vector_float32_raises(self):
        op = MatrixOperator(_spd_matrix(5, np.float64))
        with pytest.raises(TypeError, match="mixed dtypes"):
            op.matvec(np.ones(5, dtype=np.float32))

    def test_operator_float32_vector_float64_raises(self):
        op = MatrixOperator(_spd_matrix(5, np.float32))
        with pytest.raises(TypeError, match="mixed dtypes"):
            op.matvec(np.ones(5, dtype=np.float64))

    def test_cg_mixed_operator_rhs_raises(self):
        op = MatrixOperator(_spd_matrix(5, np.float32))
        with pytest.raises(TypeError, match="mixed dtypes"):
            conjugate_gradient(op, np.ones(5, dtype=np.float64))

    def test_cg_mixed_x0_raises(self):
        op = MatrixOperator(_spd_matrix(5, np.float64))
        with pytest.raises(TypeError, match="mixed dtypes"):
            conjugate_gradient(
                op, np.ones(5), x0=np.zeros(5, dtype=np.float32)
            )

    def test_integer_vectors_still_promote(self):
        # Integers are not a precision statement; they promote as before.
        op = MatrixOperator(_spd_matrix(4, np.float64))
        out = op.matvec(np.ones(4, dtype=np.int64))
        assert out.dtype == np.float64

    def test_lists_still_accepted(self):
        op = DiagonalOperator(np.ones(3))
        out = op.matvec([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0])


class TestHessianOperatorDtype:
    def test_hessian_operator_on_float64_objective(self):
        rng = np.random.default_rng(0)
        obj = BinaryLogistic(rng.standard_normal((20, 4)), rng.integers(0, 2, 20))
        w = np.zeros(obj.dim)
        op = HessianOperator(obj, w)
        out = op.matvec(np.ones(obj.dim))
        assert out.dtype == np.float64

    def test_to_dense_respects_operator_dtype(self):
        op = MatrixOperator(_spd_matrix(3, np.float32))
        dense = op.to_dense()
        np.testing.assert_allclose(dense, op.A, rtol=1e-6)

    def test_untyped_operator_accepts_any_float(self):
        op = LinearOperator(3, lambda v: 2.0 * v)
        assert op.matvec(np.ones(3, dtype=np.float32)).dtype == np.float32
        assert op.matvec(np.ones(3, dtype=np.float64)).dtype == np.float64
