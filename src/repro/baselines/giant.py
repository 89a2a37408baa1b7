"""GIANT — Globally Improved Approximate Newton (Wang et al., 2017).

Each iteration:

1. global gradient via an all-reduce of local gradient contributions
   (communication round 1);
2. every worker solves its *local* Newton system
   ``(H_i + lam I) p_i = g`` with CG and the directions are averaged
   (round 2);
3. a *distributed* line search: every worker evaluates its local objective at
   all candidate step sizes ``{2^0, 2^-1, ..., 2^-k}`` and the values are
   all-reduced so the master can pick the step (round 3).

The three rounds per iteration — and the fact that every worker always
evaluates the full step-size grid — are exactly the per-iteration overheads
the paper contrasts with Newton-ADMM's single round and local early-stopping
line search.  The schedule is declared as a
:class:`~repro.distributed.schedule.RoundPlan`, so the engine *checks* the
three rounds instead of trusting call order.  Every collective blocks:
each round's transfer is charged in full.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.schedule import RoundPlan
from repro.distributed.solver_base import DistributedSolver
from repro.distributed.worker import Worker
from repro.linalg.cg import conjugate_gradient
from repro.objectives.base import ScaledObjective


class GIANT(DistributedSolver):
    """Distributed approximate Newton with averaged local Newton directions.

    Parameters
    ----------
    lam:
        L2 regularization.
    cg_max_iter, cg_tol:
        Local CG budget / tolerance (paper's comparison uses 10 / 1e-4, the
        same as Newton-ADMM).
    line_search_max_iter:
        Number of halvings in the step-size grid (paper: 10); all of them are
        always evaluated, by design of the method.
    line_search_beta:
        Armijo sufficient-decrease constant.
    """

    name = "giant"

    def __init__(
        self,
        *,
        lam: float = 1e-5,
        max_epochs: int = 100,
        cg_max_iter: int = 10,
        cg_tol: float = 1e-4,
        line_search_max_iter: int = 10,
        line_search_beta: float = 1e-4,
        evaluate_every: int = 1,
        record_accuracy: bool = True,
        tol_grad: float = 0.0,
        on_failure: str = "raise",
    ):
        super().__init__(
            lam=lam,
            max_epochs=max_epochs,
            evaluate_every=evaluate_every,
            record_accuracy=record_accuracy,
            tol_grad=tol_grad,
            on_failure=on_failure,
        )
        self.cg_max_iter = int(cg_max_iter)
        self.cg_tol = float(cg_tol)
        self.line_search_max_iter = int(line_search_max_iter)
        self.line_search_beta = float(line_search_beta)
        self._w: Optional[np.ndarray] = None
        self._last_extras: Dict[str, float] = {}

    def _initialize(self, cluster: SimulatedCluster, w0: np.ndarray) -> None:
        self._w = w0.copy()
        self._last_extras = {}
        n_total = cluster.n_total
        for worker in cluster.local_workers():
            # Local *mean* loss = (n_total / n_local) x the worker's global
            # contribution; GIANT's local Hessian is built from it.
            worker.state["local_mean_loss"] = ScaledObjective(
                worker.objective, n_total / worker.n_local_samples
            )

    def _plan_epoch(self, cluster: SimulatedCluster, epoch: int) -> RoundPlan:
        w = self._w
        if w is None:
            raise RuntimeError("GIANT epoch requested before _initialize")
        lam = self.lam

        # ---- round 1: global gradient --------------------------------------
        def local_gradient(worker: Worker, ctx: dict) -> np.ndarray:
            return worker.objective.gradient(w)

        # ---- round 2: local Newton directions, then average ------------------
        def local_direction(worker: Worker, ctx: dict) -> np.ndarray:
            grad = ctx["grad"]
            local_mean = worker.state["local_mean_loss"]

            def hess_vec(v: np.ndarray) -> np.ndarray:
                return local_mean.hvp(w, v) + lam * v

            result = conjugate_gradient(
                hess_vec,
                grad,
                tol=self.cg_tol,
                max_iter=self.cg_max_iter,
                precision=cluster.precision,
            )
            return result.x

        # ---- round 3: distributed line search over a fixed step grid ---------
        alphas = np.array(
            [2.0 ** (-j) for j in range(self.line_search_max_iter + 1)]
        )

        def local_line_values(worker: Worker, ctx: dict) -> np.ndarray:
            # Every worker evaluates its local loss contribution at *all*
            # candidate steps plus the current point (last entry).
            direction = ctx["direction"]
            values = np.empty(alphas.shape[0] + 1)
            for j, alpha in enumerate(alphas):
                values[j] = worker.objective.value(w - alpha * direction)
            values[-1] = worker.objective.value(w)
            return values

        def choose_step(ctx: dict) -> np.ndarray:
            direction = ctx["direction"]
            grad = ctx["grad"]
            summed = ctx["line_values_sum"]
            f_current = summed[-1] + 0.5 * lam * float(w @ w)
            slope = float(direction @ grad)
            chosen_alpha = float(alphas[-1])
            for j, alpha in enumerate(alphas):
                candidate = w - alpha * direction
                f_candidate = summed[j] + 0.5 * lam * float(candidate @ candidate)
                if f_candidate <= f_current - self.line_search_beta * alpha * slope:
                    chosen_alpha = float(alpha)
                    break

            self._w = w - chosen_alpha * direction
            self._last_extras = {
                "step_size": chosen_alpha,
                "grad_norm": float(np.linalg.norm(grad)),
                "line_search_evaluations": float(alphas.shape[0]),
            }
            return self._w

        plan = RoundPlan("giant")
        plan.local("local_grads", local_gradient, label="gradient")
        plan.allreduce("grad_sum", lambda ctx: ctx["local_grads"])
        plan.master(lambda ctx: ctx["grad_sum"] + lam * w, name="grad")
        plan.local("local_dirs", local_direction, label="newton-cg")
        plan.allreduce("dir_sum", lambda ctx: ctx["local_dirs"])
        plan.master(lambda ctx: ctx["dir_sum"] / cluster.n_workers, name="direction")
        plan.local("line_values", local_line_values, label="line-search")
        plan.allreduce("line_values_sum", lambda ctx: ctx["line_values"])
        plan.master(choose_step, name="w")
        plan.returns("w")
        return plan

    def _epoch_extras(self, cluster: SimulatedCluster) -> dict:
        return dict(self._last_extras)
