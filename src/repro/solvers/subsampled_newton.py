"""Sub-sampled Newton-CG (Roosta-Khorasani & Mahoney, refs. [20, 21] of the paper).

The paper's convergence argument for inexact Newton leans on the sub-sampled
Newton analysis: a Hessian built from a uniformly sampled subset of the data
is a spectrally accurate surrogate, so replacing ``H`` by the sub-sampled
Hessian in the CG solve preserves the linear-quadratic convergence while
cutting the per-iteration Hessian-vector-product cost by the sampling ratio.
This solver implements exactly that: full gradients, sub-sampled Hessians,
CG + Armijo backtracking — another single-node engine that can be dropped into
the ADMM x-update.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.linalg.cg import conjugate_gradient
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


def _split_loss_and_regularizer(objective: Objective):
    """Return ``(sampled_part, deterministic_part)`` of an objective.

    For a :class:`RegularizedObjective` only the data-fit loss is sub-sampled;
    the regularizer's Hessian is exact and cheap.  Any other objective that
    exposes ``minibatch`` is sampled as a whole.
    """
    if isinstance(objective, RegularizedObjective) and hasattr(objective.loss, "minibatch"):
        return objective.loss, objective.regularizer
    if hasattr(objective, "minibatch"):
        return objective, None
    raise TypeError(
        "SubsampledNewton requires an objective whose data-fit part supports "
        "minibatch sampling (e.g. SoftmaxCrossEntropy or a RegularizedObjective "
        "wrapping one)"
    )


class SubsampledNewton(Solver):
    """Newton-CG with a uniformly sub-sampled Hessian.

    Parameters
    ----------
    hessian_sample_fraction:
        Fraction of the data used to build the Hessian estimate each
        iteration (the gradient always uses the full data).
    min_hessian_samples:
        Lower bound on the sample count, so tiny problems keep a meaningful
        estimate.
    max_iterations, grad_tol, rel_obj_tol:
        Outer-loop termination (same semantics as :class:`NewtonCG`).
    cg_max_iter, cg_tol:
        Inner CG budget and relative tolerance.
    line_search_*:
        Armijo backtracking parameters.
    random_state:
        Seed controlling the per-iteration Hessian samples.
    """

    def __init__(
        self,
        *,
        hessian_sample_fraction: float = 0.1,
        min_hessian_samples: int = 10,
        max_iterations: int = 50,
        grad_tol: float = 1e-8,
        cg_max_iter: int = 10,
        cg_tol: float = 1e-4,
        line_search_beta: float = 1e-4,
        line_search_rho: float = 0.5,
        line_search_max_iter: int = 10,
        rel_obj_tol: float = 0.0,
        random_state=0,
    ):
        if not 0.0 < hessian_sample_fraction <= 1.0:
            raise ValueError(
                f"hessian_sample_fraction must lie in (0, 1], got {hessian_sample_fraction}"
            )
        if min_hessian_samples < 1:
            raise ValueError(
                f"min_hessian_samples must be >= 1, got {min_hessian_samples}"
            )
        self.hessian_sample_fraction = float(hessian_sample_fraction)
        self.min_hessian_samples = int(min_hessian_samples)
        self.criteria = TerminationCriteria(
            max_iterations=max_iterations, grad_tol=grad_tol, rel_obj_tol=rel_obj_tol
        )
        self.cg_max_iter = int(cg_max_iter)
        self.cg_tol = float(cg_tol)
        self.line_search_beta = float(line_search_beta)
        self.line_search_rho = float(line_search_rho)
        self.line_search_max_iter = int(line_search_max_iter)
        self.random_state = random_state

    def _sample_size(self, n_samples: int) -> int:
        size = int(round(self.hessian_sample_fraction * n_samples))
        return min(max(size, self.min_hessian_samples), n_samples)

    def minimize(
        self,
        objective: Objective,
        w0: Optional[np.ndarray] = None,
        *,
        callback: Optional[CallbackType] = None,
    ) -> SolverResult:
        sampled_part, deterministic_part = _split_loss_and_regularizer(objective)
        n_samples = sampled_part.n_samples
        if n_samples < 1:
            raise ValueError("objective reports zero samples; cannot sub-sample")
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
        sample_size = self._sample_size(n_samples)

        while not converged and n_iter < self.criteria.max_iterations:
            idx = rng.choice(n_samples, size=sample_size, replace=False)
            sampled = sampled_part.minibatch(idx)

            def subsampled_hvp(v: np.ndarray) -> np.ndarray:
                out = sampled.hvp(w, v)
                if deterministic_part is not None:
                    out = out + deterministic_part.hvp(w, v)
                return out

            cg_result = conjugate_gradient(
                subsampled_hvp, -grad, tol=self.cg_tol, max_iter=self.cg_max_iter
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
                    "hessian_samples": float(sample_size),
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
                "hessian_sample_size": sample_size,
                "wall_time": stopwatch.elapsed,
            },
        )
