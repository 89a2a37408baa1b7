"""Armijo backtracking line search (Algorithm 3 of the paper).

Starting from ``alpha = alpha0`` the step is halved (multiplied by the
back-tracking parameter ``rho``) until the sufficient-decrease condition

    F(x + alpha p) <= F(x) + alpha * beta * p @ g(x)

holds or ``max_iter`` halvings have been tried.  Unlike GIANT's distributed
line search, this runs *locally* on each worker and terminates as soon as the
condition holds — one of the two per-iteration cost advantages the paper
claims for Newton-ADMM.

The search is backend-agnostic by construction: it touches the iterate only
through the objective callable, vector arithmetic, and one inner product, all
of which operate natively on whatever array backend produced ``x``/``p``/``g``
(see :mod:`repro.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.utils.validation import check_probability


@dataclass
class LineSearchResult:
    """Outcome of a backtracking line search.

    Attributes
    ----------
    step_size:
        Accepted step (0 when no step satisfied the condition and
        ``accept_on_failure`` was False).
    f_new:
        Objective at ``x + step_size * p`` (equals ``f_x`` when rejected).
    n_evaluations:
        Number of objective evaluations performed.
    success:
        Whether the Armijo condition was satisfied.
    x_new:
        The accepted point, the very array ``f`` was last evaluated at — so
        an identity-keyed forward cache is still warm for it, and it lies
        along ``-g`` when ``p`` was not a descent direction.  ``None`` when
        ``step_size`` is 0.
    """

    step_size: float
    f_new: float
    n_evaluations: int
    success: bool
    x_new: Optional[np.ndarray] = None


def armijo_backtracking(
    f: Callable[[np.ndarray], float],
    x: np.ndarray,
    p: np.ndarray,
    g: np.ndarray,
    f_x: Optional[float] = None,
    *,
    alpha0: float = 1.0,
    beta: float = 1e-4,
    rho: float = 0.5,
    max_iter: int = 10,
    accept_on_failure: bool = True,
) -> LineSearchResult:
    """Backtracking line search along direction ``p``.

    Parameters
    ----------
    f:
        Objective value callable.
    x, p, g:
        Current point, search direction, and gradient at ``x``.
    f_x:
        Objective at ``x`` (computed if omitted).
    alpha0:
        Initial step (1 for Newton steps).
    beta:
        Sufficient-decrease constant in (0, 1).
    rho:
        Back-tracking factor in (0, 1); the paper halves the step (rho=0.5).
    max_iter:
        Maximum number of *reductions* (the paper uses 10).
    accept_on_failure:
        If no tested step satisfies the condition, return the last (smallest)
        step instead of zero; keeping the iterate moving matches the paper's
        Algorithm 3, which breaks out of the loop and uses the current alpha.
    """
    beta = check_probability(beta, name="beta")
    rho = check_probability(rho, name="rho")
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")

    n_evals = 0
    if f_x is None:
        f_x = float(f(x))
        n_evals += 1
    slope = float(p @ g)
    if slope > 0:
        # p is not a descent direction; fall back to the negative gradient.
        p = -g
        slope = float(p @ g)

    alpha = float(alpha0)
    f_new = f_x
    for i in range(max_iter + 1):
        candidate = x + alpha * p
        f_new = float(f(candidate))
        n_evals += 1
        if f_new <= f_x + alpha * beta * slope:
            return LineSearchResult(
                step_size=alpha, f_new=f_new, n_evaluations=n_evals, success=True,
                x_new=candidate,
            )
        if i == max_iter:
            break
        alpha *= rho

    if accept_on_failure and f_new < f_x:
        return LineSearchResult(
            step_size=alpha, f_new=f_new, n_evaluations=n_evals, success=False,
            x_new=candidate,
        )
    return LineSearchResult(
        step_size=0.0, f_new=f_x, n_evaluations=n_evals, success=False
    )
