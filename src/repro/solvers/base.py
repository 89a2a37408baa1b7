"""Shared solver machinery: results, iteration records, termination, counting."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.objectives.base import Objective


@dataclass
class IterationRecord:
    """One outer iteration of a solver.

    Attributes
    ----------
    iteration:
        0-based outer iteration index.
    objective:
        Objective value after the iteration.
    grad_norm:
        Euclidean norm of the gradient after the iteration.
    step_size:
        Step size actually taken (``nan`` when not applicable).
    wall_time:
        Cumulative measured wall-clock seconds since the solve started.
    extras:
        Solver-specific diagnostics (CG iterations and exit reason,
        line-search evals, ...).
    """

    iteration: int
    objective: float
    grad_norm: float
    step_size: float = float("nan")
    wall_time: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)


@dataclass
class SolverResult:
    """Outcome of a single-node solve."""

    w: np.ndarray
    objective: float
    grad_norm: float
    n_iterations: int
    converged: bool
    records: List[IterationRecord] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def objective_trace(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def grad_norm_trace(self) -> np.ndarray:
        return np.array([r.grad_norm for r in self.records])


@dataclass
class TerminationCriteria:
    """Stopping rules shared by the iterative solvers.

    A solve stops when *any* of the criteria triggers:

    * gradient norm below ``grad_tol`` (the paper's ``||g|| < eps`` test),
    * relative objective decrease below ``rel_obj_tol`` between iterations,
    * iteration budget ``max_iterations`` exhausted (reported as not
      converged).
    """

    max_iterations: int = 100
    grad_tol: float = 1e-8
    rel_obj_tol: float = 0.0

    def gradient_converged(self, grad_norm: float) -> bool:
        return grad_norm <= self.grad_tol

    def objective_converged(self, prev: float, current: float) -> bool:
        if self.rel_obj_tol <= 0.0:
            return False
        denom = max(abs(prev), 1e-300)
        return abs(prev - current) / denom <= self.rel_obj_tol


class CountingObjective(Objective):
    """Wrapper that counts evaluations and accumulated FLOPs of an objective.

    The distributed runtime wraps every worker's local objective in one of
    these; the FLOP total is what the device model converts into modelled
    compute time.
    """

    def __init__(self, base: Objective):
        self.base = base
        self.dim = base.dim
        self.n_value = 0
        self.n_gradient = 0
        self.n_hvp = 0
        self.flops = 0.0

    @property
    def backend(self):
        return self.base.backend

    def _charge(self, flops: float, *, value: int = 0, gradient: int = 0, hvp: int = 0):
        self.n_value += value
        self.n_gradient += gradient
        self.n_hvp += hvp
        self.flops += flops

    def value(self, w: np.ndarray) -> float:
        self._charge(self.base.flops_value(), value=1)
        return self.base.value(w)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        self._charge(self.base.flops_gradient(), gradient=1)
        return self.base.gradient(w)

    def value_and_gradient(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        # Charged as the *fused* cost: value and gradient share the forward
        # pass (logits + log-sum-exp), so this is less than
        # flops_value() + flops_gradient() for objectives that fuse.
        self._charge(self.base.flops_value_and_gradient(), value=1, gradient=1)
        return self.base.value_and_gradient(w)

    def hvp(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._charge(self.base.flops_hvp(), hvp=1)
        return self.base.hvp(w, v)

    def add_flops(self, flops: float) -> None:
        """Charge work performed outside the wrapper (e.g. mini-batch
        gradients computed directly from the shard by a distributed SGD
        baseline) so it still shows up in the device-time model."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        self._charge(float(flops))

    def reset_counters(self) -> None:
        self.n_value = 0
        self.n_gradient = 0
        self.n_hvp = 0
        self.flops = 0.0

    def counters(self) -> Dict[str, float]:
        return {
            "n_value": self.n_value,
            "n_gradient": self.n_gradient,
            "n_hvp": self.n_hvp,
            "flops": self.flops,
        }

    # FLOP estimates pass straight through.
    def flops_value(self) -> float:
        return self.base.flops_value()

    def flops_gradient(self) -> float:
        return self.base.flops_gradient()

    def flops_value_and_gradient(self) -> float:
        return self.base.flops_value_and_gradient()

    def flops_hvp(self) -> float:
        return self.base.flops_hvp()

    @property
    def n_samples(self) -> int:
        return self.base.n_samples


CallbackType = Callable[[IterationRecord, np.ndarray], None]


class Solver(ABC):
    """Base class for single-node solvers.

    Subclasses implement :meth:`minimize`; construction captures
    hyper-parameters so a configured solver can be reused across problems
    (which is how the distributed drivers use them on every worker).
    """

    @abstractmethod
    def minimize(
        self,
        objective: Objective,
        w0: Optional[np.ndarray] = None,
        *,
        callback: Optional[CallbackType] = None,
    ) -> SolverResult:
        """Minimize ``objective`` starting from ``w0`` (zeros by default)."""

    @staticmethod
    def _prepare_start(objective: Objective, w0: Optional[np.ndarray]) -> np.ndarray:
        """The start iterate: ``w0`` itself, not a copy.

        Keeping the caller's object lets an objective's per-iterate forward
        cache serve the first evaluation when the caller evaluated it at
        ``w0`` already (Newton-ADMM's warm start is the previous local
        solve's last iterate).  No solver here updates its iterate in place;
        one that does must copy ``w0`` first.
        """
        if w0 is None:
            return objective.initial_point()
        return objective.backend.as_vector(w0, objective.dim, name="w0")
