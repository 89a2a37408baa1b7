"""Newton-Sketch (Pilanci & Wainwright) — sketched-Hessian Newton iterations.

The paper's related work cites Newton-Sketch (via Berahas et al., ref. [1]) as
the other main family of approximate second-order methods next to sub-sampled
Newton.  Instead of sampling rows of the data, the square-root factor ``A(w)``
of the Gauss-Newton Hessian ``H(w) = A(w)^T A(w)`` is compressed with a
randomized sketch ``S`` (Gaussian, count sketch, SRHT, or row sampling from
:mod:`repro.linalg.sketching`), and the Newton system is solved against the
sketched Hessian ``(S A)^T (S A) + reg``.

The solver works with any objective whose data-fit part exposes
``hessian_sqrt(w)`` (``(m, dim)`` array with ``H = sqrt^T sqrt``):
:class:`~repro.objectives.logistic.BinaryLogistic` and
:class:`~repro.objectives.least_squares.LeastSquares` provide it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.linalg.cg import conjugate_gradient
from repro.linalg.sketching import sketch_matrix
from repro.objectives.base import Objective, RegularizedObjective
from repro.solvers.base import (
    CallbackType,
    IterationRecord,
    Solver,
    SolverResult,
    TerminationCriteria,
)
from repro.solvers.line_search import armijo_backtracking
from repro.utils.rng import check_random_state
from repro.utils.timer import Stopwatch


def _split_sqrt_part(objective: Objective):
    """Return ``(sqrt_part, extra_part)`` where ``sqrt_part.hessian_sqrt`` exists."""
    if isinstance(objective, RegularizedObjective) and hasattr(
        objective.loss, "hessian_sqrt"
    ):
        return objective.loss, objective.regularizer
    if hasattr(objective, "hessian_sqrt"):
        return objective, None
    raise TypeError(
        "NewtonSketch requires an objective whose data-fit part exposes "
        "hessian_sqrt(w) (BinaryLogistic, LeastSquares, or a RegularizedObjective "
        "wrapping one)"
    )


class NewtonSketch(Solver):
    """Newton's method with a randomly sketched Gauss-Newton Hessian.

    Parameters
    ----------
    sketch_size:
        Number of sketch rows ``m``; accuracy improves with ``m`` while the
        per-iteration cost scales linearly in it.
    sketch_kind:
        ``"gaussian"`` (default), ``"count"``, ``"rows"`` or ``"srht"``.
    max_iterations, grad_tol, rel_obj_tol:
        Outer-loop termination.
    cg_max_iter, cg_tol:
        Budget and tolerance of the CG solve against the sketched Hessian.
    line_search_*:
        Armijo backtracking parameters.
    random_state:
        Seed for the per-iteration sketches.
    """

    def __init__(
        self,
        *,
        sketch_size: int = 100,
        sketch_kind: str = "gaussian",
        max_iterations: int = 50,
        grad_tol: float = 1e-8,
        cg_max_iter: int = 25,
        cg_tol: float = 1e-6,
        line_search_beta: float = 1e-4,
        line_search_rho: float = 0.5,
        line_search_max_iter: int = 20,
        rel_obj_tol: float = 0.0,
        random_state=0,
    ):
        if sketch_size < 1:
            raise ValueError(f"sketch_size must be >= 1, got {sketch_size}")
        self.sketch_size = int(sketch_size)
        self.sketch_kind = str(sketch_kind)
        self.criteria = TerminationCriteria(
            max_iterations=max_iterations, grad_tol=grad_tol, rel_obj_tol=rel_obj_tol
        )
        self.cg_max_iter = int(cg_max_iter)
        self.cg_tol = float(cg_tol)
        self.line_search_beta = float(line_search_beta)
        self.line_search_rho = float(line_search_rho)
        self.line_search_max_iter = int(line_search_max_iter)
        self.random_state = random_state

    def minimize(
        self,
        objective: Objective,
        w0: Optional[np.ndarray] = None,
        *,
        callback: Optional[CallbackType] = None,
    ) -> SolverResult:
        sqrt_part, extra_part = _split_sqrt_part(objective)
        rng = check_random_state(self.random_state)

        w = self._prepare_start(objective, w0)
        stopwatch = Stopwatch().start()
        records = []
        total_cg_iters = 0
        total_ls_evals = 0

        f_val, grad = objective.value_and_gradient(w)
        grad_norm = float(np.linalg.norm(grad))
        converged = self.criteria.gradient_converged(grad_norm)
        n_iter = 0

        while not converged and n_iter < self.criteria.max_iterations:
            A = np.asarray(sqrt_part.hessian_sqrt(w))
            if A.ndim != 2 or A.shape[1] != objective.dim:
                raise ValueError(
                    f"hessian_sqrt returned shape {A.shape}, expected (*, {objective.dim})"
                )
            m = min(self.sketch_size, A.shape[0])
            seed = int(rng.integers(0, 2**31 - 1))
            S = sketch_matrix(self.sketch_kind, m, A.shape[0], random_state=seed)
            SA = np.asarray(S @ A)

            def sketched_hvp(v: np.ndarray) -> np.ndarray:
                out = SA.T @ (SA @ v)
                if extra_part is not None:
                    out = out + extra_part.hvp(w, v)
                return out

            cg_result = conjugate_gradient(
                sketched_hvp, -grad, tol=self.cg_tol, max_iter=self.cg_max_iter
            )
            direction = cg_result.x
            if not np.any(direction):
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
            if ls.step_size == 0.0:
                converged = True
                break

            w = ls.x_new
            prev_val = f_val
            f_val, grad = objective.value_and_gradient(w)
            grad_norm = float(np.linalg.norm(grad))
            n_iter += 1

            record = IterationRecord(
                iteration=n_iter - 1,
                objective=f_val,
                grad_norm=grad_norm,
                step_size=ls.step_size,
                wall_time=stopwatch.elapsed,
                extras={
                    "cg_iterations": cg_result.n_iterations,
                    "line_search_evals": ls.n_evaluations,
                    "sketch_rows": float(m),
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
                "total_line_search_evals": total_ls_evals,
                "sketch_kind": self.sketch_kind,
                "sketch_size": self.sketch_size,
                "wall_time": stopwatch.elapsed,
            },
        )
