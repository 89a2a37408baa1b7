"""Inexact Newton-CG (Algorithm 1 of the paper).

At each iterate the Newton system ``H(x) p = -g(x)`` is solved approximately
with conjugate gradient (relative tolerance ``theta``, small iteration
budget), and the step is globalized with Armijo backtracking (Algorithm 3).
Only Hessian-vector products are used, so the method scales to the
high-dimensional E18-like problems.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.linalg.cg import conjugate_gradient
from repro.objectives.base import Objective
from repro.solvers.base import (
    CallbackType,
    IterationRecord,
    Solver,
    SolverResult,
    TerminationCriteria,
)
from repro.solvers.line_search import armijo_backtracking
from repro.utils.timer import Stopwatch


class NewtonCG(Solver):
    """Hessian-free inexact Newton method with Armijo line search.

    Parameters
    ----------
    max_iterations:
        Outer Newton iteration budget.
    grad_tol:
        Stop when ``||g(x)|| <= grad_tol``.
    cg_max_iter, cg_tol:
        Budget and relative tolerance of the inner CG solve (the paper uses
        10 iterations at 1e-4 for Figure 1 and sweeps 10/20/30 at 1e-10 for
        Figure 4).  Each record's extras carry the solve's
        ``cg_exit_reason`` (:data:`~repro.linalg.cg.CG_EXIT_REASONS`);
        ``info["cg_exit_reasons"]`` lists every solve's, including one whose
        line search found no step.
    line_search_beta, line_search_rho, line_search_max_iter:
        Armijo parameters (paper defaults: beta small, halving, 10 iters).
    rel_obj_tol:
        Optional early stop on relative objective change.
    cg_block:
        Route the inner solve through the block-CG entry point
        (``conjugate_gradient(..., block=True)``).  The Newton system has a
        single right-hand side, which always takes the exact scalar
        recurrence, so this flag never changes iterates — it exists so
        callers solving stacked systems through the same configuration get
        the batched path.
    precision:
        ``"mixed"`` accumulates the CG reduction scalars in float64 (see
        :mod:`repro.backend.precision`); ``None`` follows the session
        default.
    """

    def __init__(
        self,
        *,
        max_iterations: int = 50,
        grad_tol: float = 1e-8,
        cg_max_iter: int = 10,
        cg_tol: float = 1e-4,
        line_search_beta: float = 1e-4,
        line_search_rho: float = 0.5,
        line_search_max_iter: int = 10,
        rel_obj_tol: float = 0.0,
        cg_block: bool = False,
        precision: Optional[str] = None,
    ):
        self.criteria = TerminationCriteria(
            max_iterations=max_iterations, grad_tol=grad_tol, rel_obj_tol=rel_obj_tol
        )
        if cg_max_iter < 1:
            raise ValueError(f"cg_max_iter must be >= 1, got {cg_max_iter}")
        self.cg_max_iter = int(cg_max_iter)
        self.cg_tol = float(cg_tol)
        self.line_search_beta = float(line_search_beta)
        self.line_search_rho = float(line_search_rho)
        self.line_search_max_iter = int(line_search_max_iter)
        self.cg_block = bool(cg_block)
        self.precision = precision

    def minimize(
        self,
        objective: Objective,
        w0: Optional[np.ndarray] = None,
        *,
        callback: Optional[CallbackType] = None,
    ) -> SolverResult:
        w = self._prepare_start(objective, w0)
        backend = objective.backend
        stopwatch = Stopwatch().start()
        records = []
        total_cg_iters = 0
        total_ls_evals = 0
        cg_exit_reasons = []

        # The fused entry point computes the forward pass (logits,
        # log-sum-exp, probabilities) once; the returned Hessian operator is
        # bound to this exact iterate so every CG matvec reuses it.
        f_val, grad, hvp_op = objective.value_and_gradient_and_hvp_operator(w)
        grad_norm = backend.norm(grad)
        converged = self.criteria.gradient_converged(grad_norm)
        n_iter = 0

        while not converged and n_iter < self.criteria.max_iterations:
            cg_result = conjugate_gradient(
                hvp_op,
                -grad,
                tol=self.cg_tol,
                max_iter=self.cg_max_iter,
                backend=backend,
                precision=self.precision,
                block=self.cg_block,
            )
            direction = cg_result.x
            if not backend.any_nonzero(direction):
                direction = -grad
            ls = armijo_backtracking(
                objective.value,
                w,
                direction,
                grad,
                f_val,
                alpha0=1.0,
                beta=self.line_search_beta,
                rho=self.line_search_rho,
                max_iter=self.line_search_max_iter,
            )
            total_cg_iters += cg_result.n_iterations
            total_ls_evals += ls.n_evaluations
            cg_exit_reasons.append(cg_result.exit_reason)

            if ls.step_size == 0.0:
                # No progress possible along the (approximate) Newton
                # direction or the gradient — treat as converged to avoid
                # spinning.
                converged = True
                break

            w = ls.x_new
            prev_val = f_val
            f_val, grad, hvp_op = objective.value_and_gradient_and_hvp_operator(w)
            grad_norm = backend.norm(grad)
            n_iter += 1

            record = IterationRecord(
                iteration=n_iter - 1,
                objective=f_val,
                grad_norm=grad_norm,
                step_size=ls.step_size,
                wall_time=stopwatch.elapsed,
                extras={
                    "cg_iterations": cg_result.n_iterations,
                    "cg_relative_residual": cg_result.relative_residual,
                    "cg_exit_reason": cg_result.exit_reason,
                    "line_search_evals": ls.n_evaluations,
                },
            )
            records.append(record)
            if callback is not None:
                callback(record, w)

            converged = self.criteria.gradient_converged(grad_norm) or (
                self.criteria.objective_converged(prev_val, f_val)
            )

        stopwatch.stop()
        return SolverResult(
            w=w,
            objective=f_val,
            grad_norm=grad_norm,
            n_iterations=n_iter,
            converged=bool(converged),
            records=records,
            info={
                "total_cg_iterations": total_cg_iters,
                "cg_exit_reasons": cg_exit_reasons,
                "total_line_search_evals": total_ls_evals,
                "wall_time": stopwatch.elapsed,
            },
        )
