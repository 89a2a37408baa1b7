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

Two extensions serve the kernel-speed work:

* ``precision="mixed"`` accumulates the recurrence dot products and residual
  norms in float64 (:meth:`~repro.backend.base.ArrayBackend.dot_hp`) while
  the vectors stay at their storage dtype.  The default (``None``) keeps the
  historical bit-reproducible reductions.
* :func:`block_conjugate_gradient` solves ``A X = B`` for ``s``
  right-hand sides in lockstep — one batched ``matmat`` per iteration (a
  single GEMM when ``A`` is a :class:`~repro.linalg.operators.\
BatchedHessianOperator`) instead of ``s`` sequential solves.  Each column
  runs the exact scalar CG recurrence with its own coefficients; columns
  converge (or hit negative curvature) independently and freeze while the
  rest continue.
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


@dataclass
class BlockCGResult:
    """Outcome of a block conjugate-gradient solve over ``s`` right-hand sides.

    Attributes
    ----------
    X:
        ``(dim, s)`` solution block (column ``j`` solves ``A x = B[:, j]``).
    converged:
        Whether *every* column met the relative-residual tolerance.
    n_iterations:
        Lockstep iterations performed (the max over columns).
    residual_norms / relative_residuals / column_converged:
        Per-column host arrays of shape ``(s,)``.
    exit_reasons:
        Why each column stopped, one of :data:`CG_EXIT_REASONS` per column.
    residual_history:
        Per-iteration ``(s,)`` residual-norm arrays (including iteration 0).
    """

    X: np.ndarray
    converged: bool
    n_iterations: int
    residual_norms: np.ndarray
    relative_residuals: np.ndarray
    column_converged: np.ndarray
    exit_reasons: List[str]
    residual_history: List[np.ndarray] = field(default_factory=list)


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
    block: bool = False,
) -> Union[CGResult, "BlockCGResult"]:
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
    block:
        Accept a 2-D ``b`` of stacked right-hand sides and solve them in
        lockstep via :func:`block_conjugate_gradient` (returns a
        :class:`BlockCGResult`).  A 1-D ``b`` always takes the scalar path,
        so single-RHS solves are bitwise independent of this flag.
    """
    bk = backend if backend is not None else infer_backend(b)
    b = bk.asarray(b)
    if getattr(b, "ndim", 1) == 2:
        if not block:
            raise ValueError(
                "b is 2-D; pass block=True to solve stacked right-hand sides"
            )
        return block_conjugate_gradient(
            A,
            b,
            x0=x0,
            tol=tol,
            max_iter=max_iter,
            preconditioner=preconditioner,
            backend=bk,
            precision=precision,
        )
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


def _is_float32(x) -> bool:
    """Dtype-system-agnostic float32 test ("float32" vs "torch.float32")."""
    return str(getattr(x, "dtype", "")).endswith("float32")


def block_conjugate_gradient(
    A: MatvecLike,
    B,
    *,
    x0=None,
    tol: float = 1e-4,
    max_iter: int = 10,
    preconditioner: Optional[MatvecLike] = None,
    backend: Optional[ArrayBackend] = None,
    precision: Optional[str] = None,
) -> BlockCGResult:
    """Solve ``A X = B`` for ``s`` stacked right-hand sides in lockstep.

    Each column runs the standard CG recurrence with its own scalar
    coefficients; the only coupling is that all columns share each
    iteration's operator application, so an ``A`` exposing a batched
    ``matmat`` (e.g. :class:`~repro.linalg.operators.BatchedHessianOperator`)
    turns ``s`` matvecs into one GEMM per iteration.  Columns that converge
    — or hit non-positive curvature, mirroring the scalar fallback — freeze
    (their coefficients are forced to zero) while the rest continue.

    Per-column coefficients are accumulated on the host in float64
    (``precision="mixed"`` additionally runs the device-side reductions in
    float64) and are demoted to float32 before re-entering float32 vector
    updates, so single-precision blocks stay single-precision.
    """
    bk = backend if backend is not None else infer_backend(B)
    xp = bk.xp
    B = bk.asarray(B)
    if getattr(B, "ndim", None) != 2:
        raise ValueError(
            f"block CG expects a 2-D right-hand side, got ndim={getattr(B, 'ndim', None)}"
        )
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    high_precision = resolve_precision(precision) == "mixed"
    dim, s = int(B.shape[0]), int(B.shape[1])
    if isinstance(A, LinearOperator):
        if A.dim != dim:
            raise ValueError(
                f"operator has dim {A.dim}, right-hand sides have {dim} rows"
            )
        check_dtype_match(A.dtype, B.dtype, context="block_conjugate_gradient")

    if hasattr(A, "matmat"):
        matmat = A.matmat
    else:
        _mv = A.matvec if isinstance(A, LinearOperator) else A

        def matmat(P):
            cols = [_as_vec(_mv(P[:, j])).reshape(-1, 1) for j in range(s)]
            return xp.hstack(cols) if s > 1 else cols[0]

    if preconditioner is None:
        apply_prec = None
    else:
        _pmv = (
            preconditioner.matvec
            if isinstance(preconditioner, LinearOperator)
            else preconditioner
        )

        def apply_prec(R):
            cols = [_as_vec(_pmv(R[:, j])).reshape(-1, 1) for j in range(s)]
            return xp.hstack(cols) if s > 1 else cols[0]

    keep_f32 = _is_float32(B)

    def _coeffs(host_vals: np.ndarray):
        """Host float64 per-column coefficients -> device row at storage dtype."""
        dev = bk.asarray(host_vals)
        return bk.demote_fp32(dev) if keep_f32 else dev

    def _coldots(U, V) -> np.ndarray:
        return bk.to_numpy(
            bk.colwise_dot(U, V, high_precision=high_precision)
        ).astype(np.float64, copy=False)

    def _colnorms(R) -> np.ndarray:
        return np.sqrt(np.maximum(_coldots(R, R), 0.0))  # repro-lint: ignore[RPR001] host-side by contract

    if x0 is None:
        X = bk.zeros((dim, s), dtype=B.dtype)
        R = _copy(B)
    else:
        X = _copy(bk.asarray(x0))
        if getattr(X, "ndim", None) != 2 or tuple(X.shape) != (dim, s):
            raise ValueError(
                f"x0 must have shape ({dim}, {s}), got {tuple(getattr(X, 'shape', ()))}"
            )
        check_dtype_match(B.dtype, X.dtype, context="block_conjugate_gradient(x0)")
        R = B - matmat(X) if bk.any_nonzero(X) else _copy(B)

    b_norms = _colnorms(B)
    res = _colnorms(R)
    history = [res.copy()]
    threshold = tol * b_norms
    active = res > threshold
    # A column already inactive here is done: ``b == 0`` or a good ``x0``.
    reasons: List[Optional[str]] = [
        None if a else ("zero_rhs" if bn == 0.0 else "tolerance")
        for a, bn in zip(active, b_norms)
    ]
    n_iter = 0

    if active.any():
        Z = apply_prec(R) if apply_prec is not None else R
        P = _copy(Z)
        rz = _coldots(R, Z)

        while active.any() and n_iter < max_iter:
            AP = matmat(P)
            pAp = _coldots(P, AP)
            negative = active & (pAp <= 0.0)
            if negative.any():
                # Mirror the scalar fallback: a column that sees non-positive
                # curvature before doing any work takes the steepest-descent
                # direction; otherwise it keeps its current iterate.
                for j in np.flatnonzero(negative):  # repro-lint: ignore[RPR001] host-side by contract
                    reasons[j] = "nonpositive_curvature"
                    if n_iter == 0:
                        X[:, j] = B[:, j]
                active &= ~negative
                if not active.any():
                    break
            safe = np.where(active, pAp, 1.0)  # repro-lint: ignore[RPR001] host-side by contract
            alpha = np.where(active, rz / safe, 0.0)  # repro-lint: ignore[RPR001] host-side by contract
            alpha_dev = _coeffs(alpha)
            X = X + P * alpha_dev
            R = R - AP * alpha_dev
            n_iter += 1
            res = _colnorms(R)
            history.append(res.copy())
            for j in range(s):
                if active[j] and res[j] <= threshold[j]:
                    reasons[j] = "tolerance"
            active &= res > threshold
            if not active.any():
                break
            Z = apply_prec(R) if apply_prec is not None else R
            rz_new = _coldots(R, Z)
            beta = np.where(active, rz_new / np.where(rz != 0.0, rz, 1.0), 0.0)  # repro-lint: ignore[RPR001] host-side by contract
            rz = rz_new
            P = Z + P * _coeffs(beta)

    res = history[-1]
    column_converged = res <= threshold
    relative = np.where(b_norms > 0.0, res / np.where(b_norms > 0.0, b_norms, 1.0), 0.0)  # repro-lint: ignore[RPR001] host-side by contract
    return BlockCGResult(
        X=X,
        converged=bool(column_converged.all()),
        n_iterations=n_iter,
        residual_norms=res,
        relative_residuals=relative,
        column_converged=column_converged,
        exit_reasons=[r if r is not None else "max_iter" for r in reasons],
        residual_history=history,
    )
