"""Limited-memory BFGS.

Not part of the paper's evaluation, but a standard quasi-Newton reference
point; included so users of the library can compare the Hessian-free Newton-CG
path against a curvature-pair method on the same objectives.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

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


class LBFGS(Solver):
    """L-BFGS with Armijo backtracking.

    Parameters
    ----------
    memory:
        Number of curvature pairs retained (``m`` in the usual notation).
    """

    def __init__(
        self,
        *,
        memory: int = 10,
        max_iterations: int = 200,
        grad_tol: float = 1e-8,
        rel_obj_tol: float = 0.0,
    ):
        if memory < 1:
            raise ValueError(f"memory must be >= 1, got {memory}")
        self.memory = int(memory)
        self.criteria = TerminationCriteria(
            max_iterations=max_iterations, grad_tol=grad_tol, rel_obj_tol=rel_obj_tol
        )

    @staticmethod
    def _two_loop(
        grad: np.ndarray,
        pairs: Deque[Tuple[np.ndarray, np.ndarray, float]],
    ) -> np.ndarray:
        """Standard two-loop recursion producing ``-H_approx^{-1} g``."""
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * float(s @ q)
            q -= alpha * y
            alphas.append(alpha)
        if pairs:
            s, y, _ = pairs[-1]
            gamma = float(s @ y) / max(float(y @ y), 1e-300)
            q *= gamma
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            beta = rho * float(y @ q)
            q += (alpha - beta) * s
        return -q

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
        pairs: Deque[Tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=self.memory)

        f_val, grad = objective.value_and_gradient(w)
        grad_norm = float(np.linalg.norm(grad))
        converged = self.criteria.gradient_converged(grad_norm)
        n_iter = 0

        while not converged and n_iter < self.criteria.max_iterations:
            direction = self._two_loop(grad, pairs) if pairs else -grad
            ls = armijo_backtracking(
                objective.value, w, direction, grad, f_val, alpha0=1.0, max_iter=25
            )
            if ls.step_size == 0.0:
                converged = True
                break
            w_new = ls.x_new
            prev_val = f_val
            f_val, grad_new = objective.value_and_gradient(w_new)

            s = w_new - w
            y = grad_new - grad
            sy = float(s @ y)
            if sy > 1e-12:
                pairs.append((s, y, 1.0 / sy))

            w, grad = w_new, grad_new
            grad_norm = float(np.linalg.norm(grad))
            n_iter += 1
            record = IterationRecord(
                iteration=n_iter - 1,
                objective=f_val,
                grad_norm=grad_norm,
                step_size=ls.step_size,
                wall_time=stopwatch.elapsed,
                extras={"memory_pairs": len(pairs)},
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
