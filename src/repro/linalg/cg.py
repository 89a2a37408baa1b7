"""Conjugate gradient with relative-residual early stopping.

This is the inner solver of the inexact Newton iteration (paper eq. 3b/4):
CG is run on ``H p = -g`` until ``||H p + g|| <= theta * ||g||`` or the
iteration budget is exhausted.  The paper uses 10 CG iterations with a 1e-4
tolerance in Figure 1 and sweeps 10/20/30 iterations in Figure 4; the figure
experiments pin those settings.  Newton-ADMM's own default local budget is 6
iterations: the tolerance hardly ever binds on the bench inputs, and 6 reaches
their targets with 40 % fewer Hessian-vector products (evidence in
``docs/performance.md``, "Local CG budget").

Every solve reports why it stopped (:data:`CG_EXIT_REASONS`):
``"tolerance"`` (the relative residual met ``tol``), ``"max_iter"`` (the
budget ran out first), ``"nonpositive_curvature"`` (``p^T A p <= 0``: the
operator is not positive definite along the search direction) or
``"zero_rhs"`` (``b == 0``, solved by ``x = 0`` without iterating).

The solve is dtype- and backend-agnostic: vectors keep the dtype they arrive
with (float32 stays float32 — no silent ``float64`` round-trip through host
memory for GPU arrays) and every reduction runs on the backend that owns
``b`` (see :mod:`repro.backend`).  Scalar recurrence coefficients are Python
floats, which multiply into any dtype without promotion.

``precision="mixed"`` accumulates the recurrence dot products and residual
norms in float64 (:meth:`~repro.backend.base.ArrayBackend.dot_hp`) while the
vectors stay at their storage dtype.  The default (``None``) keeps the
historical bit-reproducible reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.backend import ArrayBackend, infer_backend, resolve_precision
from repro.backend.ops import copy_array as _copy
from repro.linalg.operators import LinearOperator, check_dtype_match

#: why a CG solve stopped
CG_EXIT_REASONS = ("tolerance", "max_iter", "nonpositive_curvature", "zero_rhs")


@dataclass
class CGResult:
    """Outcome of a conjugate-gradient solve.

    Attributes
    ----------
    x:
        Approximate solution.
    converged:
        Whether the relative-residual tolerance was met.
    n_iterations:
        Number of CG iterations actually performed.
    residual_norm:
        Final ``||b - A x||``.
    relative_residual:
        ``residual_norm / ||b||`` (``0`` when ``b == 0``).
    exit_reason:
        Why the solve stopped, one of :data:`CG_EXIT_REASONS`.
    residual_history:
        Residual norm after every iteration (including iteration 0).
    """

    x: np.ndarray
    converged: bool
    n_iterations: int
    residual_norm: float
    relative_residual: float
    exit_reason: str
    residual_history: List[float] = field(default_factory=list)


MatvecLike = Union[LinearOperator, Callable[[np.ndarray], np.ndarray]]


def _as_vec(out):
    """Flatten a matvec/preconditioner result, tolerating bare callables that
    return plain sequences (coerced on the host, like the pre-backend code)."""
    if hasattr(out, "ravel"):
        return out.ravel()
    return np.asarray(out, dtype=np.float64).ravel()


def conjugate_gradient(
    A: MatvecLike,
    b: np.ndarray,
    *,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-4,
    max_iter: int = 10,
    preconditioner: Optional[MatvecLike] = None,
    backend: Optional[ArrayBackend] = None,
    precision: Optional[str] = None,
) -> CGResult:
    """Solve ``A x = b`` for symmetric positive (semi-)definite ``A``.

    Parameters
    ----------
    A:
        A :class:`LinearOperator` or a bare matvec callable.
    b:
        Right-hand side; its dtype and backend are preserved throughout.
    x0:
        Starting point (zeros by default); must match ``b``'s dtype.
    tol:
        Relative residual tolerance ``||b - A x|| <= tol * ||b||``.
    max_iter:
        Iteration budget (early stopping is the point — the Newton step only
        needs a ``theta``-relative solution).
    preconditioner:
        Optional SPD preconditioner ``M^{-1}`` applied as a matvec.
    backend:
        Array backend owning the vectors (inferred from ``b`` when omitted).
    precision:
        ``"mixed"`` accumulates recurrence dots / norms in float64;
        ``None`` resolves the session default (see
        :mod:`repro.backend.precision`).
    """
    bk = backend if backend is not None else infer_backend(b)
    b = bk.as_vector(b, name="b")
    dim = b.shape[0]
    matvec = A.matvec if isinstance(A, LinearOperator) else A
    if preconditioner is None:
        apply_prec = None
    else:
        apply_prec = (
            preconditioner.matvec
            if isinstance(preconditioner, LinearOperator)
            else preconditioner
        )
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if isinstance(A, LinearOperator):
        check_dtype_match(A.dtype, b.dtype, context="conjugate_gradient")
    high_precision = resolve_precision(precision) == "mixed"
    _dot = bk.dot_hp if high_precision else bk.dot
    _norm = bk.norm_hp if high_precision else bk.norm

    if x0 is None:
        x = bk.zeros(dim, dtype=b.dtype)
    else:
        x = _copy(bk.as_vector(x0, dim, name="x0"))
        check_dtype_match(b.dtype, x.dtype, context="conjugate_gradient(x0)")
    b_norm = _norm(b)
    if b_norm == 0.0:
        zero = bk.zeros(dim, dtype=b.dtype)
        return CGResult(
            x=zero,
            converged=True,
            n_iterations=0,
            residual_norm=0.0,
            relative_residual=0.0,
            exit_reason="zero_rhs",
            residual_history=[0.0],
        )

    r = b - _as_vec(matvec(x)) if bk.any_nonzero(x) else _copy(b)
    z = _as_vec(apply_prec(r)) if apply_prec is not None else r
    p = _copy(z)
    rz = _dot(r, z)
    history = [_norm(r)]
    threshold = tol * b_norm
    converged = history[-1] <= threshold
    exit_reason = "tolerance" if converged else "max_iter"
    n_iter = 0

    while not converged and n_iter < max_iter:
        Ap = _as_vec(matvec(p))
        pAp = _dot(p, Ap)
        if pAp <= 0.0:
            # Negative / zero curvature: the operator is not PD along p.  For
            # the convex problems here this only happens from round-off on a
            # nearly-singular Hessian; fall back to the current iterate (or
            # to ``b`` itself, the steepest-descent direction of the
            # quadratic model, if nothing was done yet).
            if n_iter == 0:
                x = _copy(b)
            exit_reason = "nonpositive_curvature"
            break
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        n_iter += 1
        res_norm = _norm(r)
        history.append(res_norm)
        if res_norm <= threshold:
            converged = True
            exit_reason = "tolerance"
            break
        z = _as_vec(apply_prec(r)) if apply_prec is not None else r
        rz_new = _dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p

    res_norm = history[-1]
    return CGResult(
        x=x,
        converged=bool(converged or res_norm <= threshold),
        n_iterations=n_iter,
        residual_norm=res_norm,
        relative_residual=res_norm / b_norm,
        exit_reason=exit_reason,
        residual_history=history,
    )
