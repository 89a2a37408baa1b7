"""Single-node solvers.

The inexact Newton-CG solver (Algorithm 1 of the paper) is the workhorse used
inside every Newton-ADMM worker.  Sub-sampled Newton is the single-node
Newton variant the examples compare it with; SVRG is InexactDANE's local
solver.
"""

from repro.solvers.base import (
    CountingObjective,
    IterationRecord,
    Solver,
    SolverResult,
    TerminationCriteria,
)
from repro.solvers.line_search import armijo_backtracking, LineSearchResult
from repro.solvers.newton_cg import NewtonCG
from repro.solvers.subsampled_newton import SubsampledNewton
from repro.solvers.svrg import SVRG

__all__ = [
    "CountingObjective",
    "IterationRecord",
    "Solver",
    "SolverResult",
    "TerminationCriteria",
    "armijo_backtracking",
    "LineSearchResult",
    "NewtonCG",
    "SubsampledNewton",
    "SVRG",
]
