"""Matrix-free linear operators.

Second-order solvers in this library only ever touch the Hessian through
matrix-vector products (the "Hessian-free" approach of the paper), so all of
them are written against the tiny :class:`LinearOperator` protocol below.

Operators are dtype- and backend-agnostic: vectors flow through ``matvec``
without being cast (float32 stays float32, device arrays stay on device).
When an operator declares a ``dtype``, applying it to a vector of a
*different* floating dtype raises — silent cross-precision matvecs are how
float32 pipelines quietly degrade to float64 round-trips.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.backend.ops import ensure_float_array, is_float_dtype as _is_float_dtype


def _dtype_of(x):
    return getattr(x, "dtype", None)


def check_dtype_match(op_dtype, vec_dtype, *, context: str = "matvec") -> None:
    """Raise a clear error for mixed-float operator/vector pairs.

    Dtypes from different type systems (a NumPy dtype vs a torch dtype) are
    not comparable and are left alone — only same-system float mismatches
    (float32 vs float64) are rejected.
    """
    if op_dtype is None or vec_dtype is None:
        return
    op_is_np = getattr(op_dtype, "kind", None) is not None
    vec_is_np = getattr(vec_dtype, "kind", None) is not None
    if op_is_np != vec_is_np:  # e.g. numpy dtype vs torch dtype
        return
    if _is_float_dtype(op_dtype) and _is_float_dtype(vec_dtype) and op_dtype != vec_dtype:
        raise TypeError(
            f"mixed dtypes in {context}: operator has dtype {op_dtype} but "
            f"vector has dtype {vec_dtype}; cast one side explicitly"
        )


class LinearOperator:
    """A square linear map defined by its matrix-vector product.

    Parameters
    ----------
    dim:
        Dimension of the (square) operator.
    matvec:
        Callable computing ``A @ v`` for a 1-D vector ``v``.
    dtype:
        Optional dtype this operator is defined over.  When set, applying the
        operator to a vector of a different floating dtype raises
        :class:`TypeError` instead of silently up/down-casting.
    """

    def __init__(
        self, dim: int, matvec: Callable[[np.ndarray], np.ndarray], *, dtype=None
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.dtype = dtype
        self._matvec = matvec
        #: number of matrix-vector products evaluated through this operator
        self.n_matvecs = 0

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = ensure_float_array(v, dtype=self.dtype).ravel()
        if v.shape[0] != self.dim:
            raise ValueError(f"vector has length {v.shape[0]}, expected {self.dim}")
        check_dtype_match(self.dtype, _dtype_of(v))
        self.n_matvecs += 1
        out = self._matvec(v)
        out = out.ravel() if hasattr(out, "ravel") else np.asarray(out).ravel()
        if out.shape[0] != self.dim:
            raise ValueError(
                f"matvec returned length {out.shape[0]}, expected {self.dim}"
            )
        return out

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)

    def to_dense(self) -> np.ndarray:
        """Materialize the operator (intended for small dims / tests only).

        Host-only: probe vectors are NumPy basis vectors, so operators over
        backend-native arrays (torch/cupy dtypes) are rejected rather than
        fed host probes their matvec cannot multiply.
        """
        if self.dtype is not None and getattr(self.dtype, "kind", None) is None:
            raise NotImplementedError(
                "to_dense() builds host probe vectors and does not support "
                "backend-native operators; apply the operator to backend "
                "arrays instead"
            )
        dtype = self.dtype if self.dtype is not None else np.float64
        A = np.empty((self.dim, self.dim), dtype=np.float64)
        e = np.zeros(self.dim, dtype=dtype)
        for j in range(self.dim):
            e[j] = 1.0
            A[:, j] = np.asarray(self.matvec(e), dtype=np.float64)
            e[j] = 0.0
        return A


class MatrixOperator(LinearOperator):
    """Wrap an explicit dense (or scipy-sparse) square matrix."""

    def __init__(self, A):
        A_shape = A.shape
        if A_shape[0] != A_shape[1]:
            raise ValueError(f"matrix must be square, got shape {A_shape}")
        self.A = A

        def _mv(v):
            out = A @ v
            return out if hasattr(out, "ravel") else np.asarray(out)

        super().__init__(A_shape[0], _mv, dtype=getattr(A, "dtype", None))


class HessianOperator(LinearOperator):
    """The Hessian of an objective at a fixed point ``w`` as a linear operator."""

    def __init__(self, objective, w: np.ndarray):
        w = objective.check_weights(w) if hasattr(objective, "check_weights") else w
        self.objective = objective
        self.w = w
        # No declared dtype: the HVP's output dtype is set by the objective's
        # data, not by ``w``, so claiming ``w.dtype`` here would reject valid
        # pairings (e.g. float32 weights against float64-validated data).
        # The matvec closes over locals, never ``self``: a closure over
        # ``self`` is a reference cycle, which would keep every Newton step's
        # iterate and subproblem alive until the cyclic collector runs.
        super().__init__(objective.dim, lambda v: objective.hvp(w, v))


class DiagonalOperator(LinearOperator):
    """Diagonal operator, e.g. a Jacobi preconditioner."""

    def __init__(self, diagonal: np.ndarray):
        diagonal = ensure_float_array(diagonal).ravel()
        self.diagonal = diagonal
        super().__init__(
            diagonal.shape[0],
            lambda v: diagonal * v,
            dtype=_dtype_of(diagonal),
        )
