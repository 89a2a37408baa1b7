"""Newton-ADMM (Algorithm 2 of the paper).

Outer loop per iteration ``k``:

1. **Local x-update** — every worker minimizes its augmented local objective
   ``f_i(x) + (rho_i/2) ||x - (z^k + y_i^k / rho_i)||^2`` with a few inexact
   Newton-CG steps (Algorithm 1), warm-started from its previous ``x_i``.
2. **Single communication round** — the master combines the per-worker vectors
   ``rho_i x_i^{k+1} - y_i^k``, forms the closed-form consensus update
   ``z^{k+1}`` (eq. 7), and sends it back.  Because the z-update only needs the
   *sum* of the per-worker payloads (and the sum of the penalties), the
   gather/scatter pair of Remark 1 is executed as a reduction tree plus a
   broadcast — ``O(log N)`` time with constant per-link volume — and is
   accounted as *one* communication round.
3. **Local dual / penalty update** — every worker updates
   ``y_i^{k+1} = y_i^k + rho_i (z^{k+1} - x_i^{k+1})`` and adapts its penalty
   with the configured policy (Spectral Penalty Selection by default).

The reported global iterate is the consensus variable ``z``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.admm.penalty import PenaltyObservation, PolicyFactory, make_penalty_policy
from repro.backend import copy_array
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.schedule import RoundPlan
from repro.distributed.solver_base import DistributedSolver
from repro.distributed.worker import Worker
from repro.objectives.base import ProximallyAugmentedObjective
from repro.solvers.newton_cg import NewtonCG


def max_iter_share(reasons_per_worker) -> float:
    """Share of the local CG solves that stopped on the iteration cap."""
    reasons = [r for worker_reasons in reasons_per_worker for r in worker_reasons]
    return reasons.count("max_iter") / len(reasons) if reasons else 0.0


class NewtonADMM(DistributedSolver):
    """Distributed Newton-ADMM solver.

    The local x-update's precision is the cluster's: under the default
    ``"mixed"`` its GEMMs read float32 shards and everything else stays
    float64 (``docs/performance.md``, "Mixed-precision local solve").

    Parameters
    ----------
    lam:
        L2 regularization strength of the global objective.
    max_epochs:
        Number of ADMM (outer) iterations.
    rho0:
        Initial per-worker penalty.  ``None`` (default) selects
        ``1 / n_total`` at fit time, which matches a unit penalty on the
        paper's *sum*-form objective (eq. 1) under this library's mean-loss
        scaling.
    penalty:
        ``"spectral"`` (default, SPS), ``"residual_balancing"``, ``"fixed"``,
        or a callable returning fresh :class:`PenaltyPolicy` instances.
    local_newton_iters:
        Inexact Newton steps taken per worker per ADMM iteration.
    cg_max_iter, cg_tol:
        Inner CG budget / relative tolerance.  The default budget is 6
        iterations; the paper's 10 (at 1e-4) is what the figure experiments
        in :mod:`repro.harness.experiments` pin.  The tolerance hardly ever
        binds on the bench inputs, and 6 reaches their targets with 40 %
        fewer Hessian-vector products (evidence, and why not 5, in
        ``docs/performance.md``, "Local CG budget").
        Each epoch's ``local_cg_max_iter_share`` extra is the share of
        local CG solves that stopped on this cap.
    line_search_max_iter:
        Armijo backtracking budget (paper: 10); the search runs locally and
        stops early, unlike GIANT's distributed line search.
    over_relaxation:
        ADMM over-relaxation factor ``alpha`` in ``[1, 2)``: the z- and dual
        updates use ``alpha * x_i + (1 - alpha) * z_k`` instead of ``x_i``.
        ``1.0`` (the paper's setting) disables it; 1.5-1.8 is the range Boyd
        et al. recommend.
    stop_abs_tol, stop_rel_tol:
        Boyd-style absolute/relative tolerances on the primal and dual
        residuals; when both are positive the solver stops as soon as both
        residuals fall below their thresholds (before ``max_epochs``).
    on_failure:
        Reaction of the strict-sync schedule to an injected worker crash:
        ``"raise"`` (default, a :class:`~repro.distributed.faults.WorkerLostError`)
        or ``"stall"`` (wait for the restart).  The quorum-based
        :class:`~repro.admm.async_newton_admm.AsyncNewtonADMM` rides through
        crashes instead.
    """

    name = "newton_admm"

    def __init__(
        self,
        *,
        lam: float = 1e-5,
        max_epochs: int = 100,
        rho0: Optional[float] = None,
        penalty: Union[str, PolicyFactory] = "spectral",
        local_newton_iters: int = 1,
        cg_max_iter: int = 6,
        cg_tol: float = 1e-4,
        line_search_max_iter: int = 10,
        over_relaxation: float = 1.0,
        stop_abs_tol: float = 0.0,
        stop_rel_tol: float = 0.0,
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
        if local_newton_iters < 1:
            raise ValueError(
                f"local_newton_iters must be >= 1, got {local_newton_iters}"
            )
        if rho0 is not None and rho0 <= 0:
            raise ValueError(f"rho0 must be positive, got {rho0}")
        if not 1.0 <= over_relaxation < 2.0:
            raise ValueError(
                f"over_relaxation must lie in [1, 2), got {over_relaxation}"
            )
        if stop_abs_tol < 0 or stop_rel_tol < 0:
            raise ValueError("stop_abs_tol and stop_rel_tol must be non-negative")
        self.rho0 = None if rho0 is None else float(rho0)
        self.local_newton_iters = int(local_newton_iters)
        self.cg_max_iter = int(cg_max_iter)
        self.cg_tol = float(cg_tol)
        self.line_search_max_iter = int(line_search_max_iter)
        self.over_relaxation = float(over_relaxation)
        self.stop_abs_tol = float(stop_abs_tol)
        self.stop_rel_tol = float(stop_rel_tol)
        if callable(penalty):
            self._custom_policy_factory: Optional[PolicyFactory] = penalty
            self.penalty = getattr(penalty, "__name__", "custom")
        else:
            self._custom_policy_factory = None
            self.penalty = penalty
        self._z: Optional[np.ndarray] = None
        self._last_extras: Dict[str, float] = {}

    # -- hooks ---------------------------------------------------------------
    def _initialize(self, cluster: SimulatedCluster, w0: np.ndarray) -> None:
        backend = cluster.backend
        w0 = backend.as_vector(w0, cluster.dim, name="w0")
        self._z = copy_array(w0)
        self._last_extras = {}
        # Auto rho0: a unit penalty in the paper's sum-form objective equals
        # 1/n_total under this library's mean-loss scaling.
        rho0 = self.rho0 if self.rho0 is not None else 1.0 / cluster.n_total
        if self._custom_policy_factory is not None:
            policy_factory: PolicyFactory = self._custom_policy_factory
            rho0 = policy_factory().initial_rho()
        else:
            policy_factory = make_penalty_policy(self.penalty, rho0=rho0)
        for worker in cluster.local_workers():
            worker.set_vector("x", w0)
            worker.set_vector(
                "y", backend.zeros(cluster.dim, dtype=getattr(w0, "dtype", None))
            )
            worker.state["rho"] = rho0
            worker.state["policy"] = policy_factory()

    def _x_update(self, cluster: SimulatedCluster, worker: Worker, z) -> dict:
        """Algorithm 2's local x-update of ``worker`` against consensus ``z``.

        Minimizes ``f_i(x) + (rho_i/2) ||x - (z + y_i / rho_i)||^2`` from the
        worker's previous ``x`` with inexact Newton-CG on the worker's own
        loss.  Stores ``x``, the over-relaxed ``x_relaxed`` and the spectral
        policy's ``y_hat`` on the worker and returns the consensus payload
        with the solve's counts.
        """
        x = worker.get_vector("x")
        y = worker.get_vector("y")
        rho = float(worker.state["rho"])
        subproblem = ProximallyAugmentedObjective(worker.objective, rho, z + y / rho)
        result = NewtonCG(
            max_iterations=self.local_newton_iters,
            grad_tol=1e-10,
            cg_max_iter=self.cg_max_iter,
            cg_tol=self.cg_tol,
            line_search_max_iter=self.line_search_max_iter,
            precision=cluster.precision,
        ).minimize(subproblem, x)
        x_new = result.w
        # Over-relaxed iterate used by the z- and dual updates (alpha = 1
        # reduces to the plain iterate).
        alpha = self.over_relaxation
        x_relaxed = x_new if alpha == 1.0 else alpha * x_new + (1.0 - alpha) * z
        # Intermediate ("hat") dual used by the spectral policy: the dual
        # that would result from the *old* consensus variable.
        y_hat = y + rho * (z - x_relaxed)
        # ``x`` is stored as the very object the solve last evaluated, so the
        # next x-update's first evaluation is a hit in the loss's forward
        # cache.
        worker.set_vector("x", x_new)
        worker.set_vector("x_relaxed", x_relaxed)
        worker.set_vector("y_hat", y_hat)
        return {
            "payload": rho * x_relaxed - y,
            "rho": rho,
            "newton_iters": result.n_iterations,
            "cg_iters": result.info.get("total_cg_iterations", 0),
            "cg_exit_reasons": result.info["cg_exit_reasons"],
        }

    def _plan_epoch(self, cluster: SimulatedCluster, epoch: int) -> RoundPlan:
        z_old = self._z
        if z_old is None:
            raise RuntimeError("NewtonADMM epoch requested before _initialize")
        backend = cluster.backend

        # ---- 1. local x-updates (parallel across workers) -------------------
        def local_x_update(worker: Worker, ctx: dict) -> dict:
            return self._x_update(cluster, worker, z_old)

        # ---- 2. one communication round: reduce -> z-update -> broadcast ----
        # Only the sums of the payloads and of the penalties are needed for
        # eq. (7), so they travel through a reduction tree (allreduce = reduce
        # + broadcast); the tiny penalty-sum reduction shares the same round
        # (``joint_with_previous``) — the single synchronization point the
        # plan declares below.
        def z_update(ctx: dict) -> np.ndarray:
            return ctx["payload_sum"] / (self.lam + ctx["rho_sum"])

        # ---- 3. local dual + penalty updates ---------------------------------
        def local_dual_update(worker: Worker, ctx: dict) -> dict:
            z_new = ctx["z"]
            x_new = worker.get_vector("x_relaxed")
            y = worker.get_vector("y")
            y_hat = worker.get_vector("y_hat")
            rho = float(worker.state["rho"])
            y_new = y + rho * (z_new - x_new)
            primal_res = backend.norm(x_new - z_new)
            dual_res = rho * backend.norm(z_new - z_old)
            obs = PenaltyObservation(
                iteration=epoch,
                x_new=x_new,
                z_new=z_new,
                z_old=z_old,
                y_new=y_new,
                y_old=y,
                y_hat=y_hat,
                rho=rho,
                primal_residual=primal_res,
                dual_residual=dual_res,
            )
            new_rho = float(worker.state["policy"].update(obs))
            worker.set_vector("y", y_new)
            worker.state["rho"] = new_rho
            # Dual update + residuals are a handful of AXPYs / norms.
            worker.objective.add_flops(10.0 * worker.dim)
            return {
                "primal": primal_res**2,
                "dual": dual_res**2,
                "rho": new_rho,
                "x_norm_sq": backend.dot(x_new, x_new),
                "y_norm_sq": backend.dot(y_new, y_new),
            }

        def finalize(ctx: dict) -> None:
            local_results = ctx["x_update"]
            dual_results = ctx["dual"]
            z_new = ctx["z"]
            primal_residual = float(np.sqrt(sum(r["primal"] for r in dual_results)))
            dual_residual = float(np.sqrt(sum(r["dual"] for r in dual_results)))
            self._z = z_new
            self._last_extras = {
                "primal_residual": primal_residual,
                "dual_residual": dual_residual,
                "mean_rho": float(np.mean([r["rho"] for r in dual_results])),
                "local_newton_iters": float(
                    np.mean([r["newton_iters"] for r in local_results])
                ),
                "local_cg_iters": float(
                    np.mean([r["cg_iters"] for r in local_results])
                ),
                "local_cg_max_iter_share": max_iter_share(
                    r["cg_exit_reasons"] for r in local_results
                ),
            }

            # ---- 4. optional Boyd-style residual stopping ---------------------
            if self.stop_abs_tol > 0 and self.stop_rel_tol > 0:
                n_workers = cluster.n_workers
                dim = cluster.dim
                x_norm = float(np.sqrt(sum(r["x_norm_sq"] for r in dual_results)))
                y_norm = float(np.sqrt(sum(r["y_norm_sq"] for r in dual_results)))
                z_norm = float(np.sqrt(n_workers)) * backend.norm(z_new)
                primal_tol = (
                    np.sqrt(n_workers * dim) * self.stop_abs_tol
                    + self.stop_rel_tol * max(x_norm, z_norm)
                )
                dual_tol = (
                    np.sqrt(n_workers * dim) * self.stop_abs_tol
                    + self.stop_rel_tol * y_norm
                )
                if primal_residual <= primal_tol and dual_residual <= dual_tol:
                    self._stop_requested = True

        plan = RoundPlan("newton_admm")
        plan.local("x_update", local_x_update, label="x-update")
        plan.allreduce(
            "payload_sum",
            lambda ctx: [r["payload"] for r in ctx["x_update"]],
        )
        plan.reduce_scalar(
            "rho_sum",
            lambda ctx: [r["rho"] for r in ctx["x_update"]],
            joint_with_previous=True,
        )
        plan.master(z_update, name="z")
        plan.local("dual", local_dual_update, label="dual-update")
        plan.master(finalize)
        plan.returns("z")
        return plan

    def _epoch_extras(self, cluster: SimulatedCluster) -> dict:
        return dict(self._last_extras)
