"""Full-batch gradient descent with optional Armijo line search.

Primarily a reference first-order method for tests and examples; the
stochastic variants used by the paper's first-order baselines live in
:mod:`repro.solvers.sgd` and :mod:`repro.solvers.adaptive`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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


class GradientDescent(Solver):
    """Deterministic gradient descent.

    Parameters
    ----------
    step_size:
        Fixed step when ``line_search`` is False; initial step otherwise.
    line_search:
        Use Armijo backtracking instead of a fixed step.
    """

    def __init__(
        self,
        *,
        step_size: float = 1.0,
        max_iterations: int = 500,
        grad_tol: float = 1e-8,
        rel_obj_tol: float = 0.0,
        line_search: bool = True,
    ):
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        self.step_size = float(step_size)
        self.line_search = bool(line_search)
        self.criteria = TerminationCriteria(
            max_iterations=max_iterations, grad_tol=grad_tol, rel_obj_tol=rel_obj_tol
        )

    def minimize(
        self,
        objective: Objective,
        w0: Optional[np.ndarray] = None,
        *,
        callback: Optional[CallbackType] = None,
    ) -> SolverResult:
        w = self._prepare_start(objective, w0)
        stopwatch = Stopwatch().start()
        records = []

        f_val, grad = objective.value_and_gradient(w)
        grad_norm = float(np.linalg.norm(grad))
        converged = self.criteria.gradient_converged(grad_norm)
        n_iter = 0

        while not converged and n_iter < self.criteria.max_iterations:
            direction = -grad
            if self.line_search:
                ls = armijo_backtracking(
                    objective.value, w, direction, grad, f_val,
                    alpha0=self.step_size, max_iter=20,
                )
                step = ls.step_size
                if step == 0.0:
                    converged = True
                    break
                w = ls.x_new
            else:
                step = self.step_size
                w = w + step * direction
            prev_val = f_val
            f_val, grad = objective.value_and_gradient(w)
            grad_norm = float(np.linalg.norm(grad))
            n_iter += 1
            record = IterationRecord(
                iteration=n_iter - 1,
                objective=f_val,
                grad_norm=grad_norm,
                step_size=step,
                wall_time=stopwatch.elapsed,
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
            info={"wall_time": stopwatch.elapsed},
        )
