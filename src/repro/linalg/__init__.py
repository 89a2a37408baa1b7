"""Matrix-free linear algebra: conjugate gradients, operators, preconditioners."""

from repro.linalg.cg import CGResult, conjugate_gradient
from repro.linalg.operators import (
    DiagonalOperator,
    HessianOperator,
    LinearOperator,
    MatrixOperator,
)
from repro.linalg.preconditioners import (
    estimate_hessian_diagonal,
    hessian_jacobi_preconditioner,
    jacobi_preconditioner,
    make_preconditioner,
    RegularizerPreconditioner,
)

__all__ = [
    "CGResult",
    "conjugate_gradient",
    "LinearOperator",
    "MatrixOperator",
    "HessianOperator",
    "DiagonalOperator",
    "estimate_hessian_diagonal",
    "jacobi_preconditioner",
    "hessian_jacobi_preconditioner",
    "RegularizerPreconditioner",
    "make_preconditioner",
]
