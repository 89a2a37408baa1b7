"""CoCoA — Communication-efficient distributed dual coordinate ascent
(Jaggi et al., 2014; the "+" aggregation variant of Ma et al., 2015).

CoCoA optimizes the *dual* of the L2-regularized loss: every worker runs local
stochastic dual coordinate ascent (SDCA) passes over its own dual coordinates,
and only the resulting change of the shared primal vector ``v = w(alpha)`` is
all-reduced — one communication round per outer iteration.

Scope note (a substitution): the dual formulation is standard for *binary*
classifiers, so this implementation targets the binary logistic problem (the
HIGGS-like workload) and rejects multiclass clusters.  The paper lists CoCoA
among the related distributed second-order/dual methods but does not include
it in any figure; it is provided here for completeness of the baseline
suite.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.schedule import RoundPlan
from repro.distributed.solver_base import DistributedSolver
from repro.distributed.worker import Worker
from repro.utils.rng import check_random_state
from repro.utils.validation import issparse


def _conjugate_logistic(alpha: np.ndarray) -> np.ndarray:
    """Fenchel conjugate term ``l*(-alpha)`` of the logistic loss on (0, 1)."""
    a = np.clip(alpha, 1e-12, 1.0 - 1e-12)
    return a * np.log(a) + (1.0 - a) * np.log(1.0 - a)


class CoCoA(DistributedSolver):
    """CoCoA(+) with an SDCA local solver for binary logistic regression.

    Parameters
    ----------
    local_passes:
        Number of passes each worker makes over its dual coordinates per outer
        iteration (the "local work" knob H of the CoCoA framework).
    sigma_prime:
        Safe aggregation parameter; ``None`` uses the CoCoA+ default (= number
        of workers) which allows adding (not averaging) the local updates.
    newton_steps:
        Scalar Newton steps used for each coordinate maximization.
    """

    name = "cocoa"

    def __init__(
        self,
        *,
        lam: float = 1e-5,
        max_epochs: int = 50,
        local_passes: int = 1,
        sigma_prime: Optional[float] = None,
        newton_steps: int = 5,
        alpha_init: float = 1e-6,
        evaluate_every: int = 1,
        record_accuracy: bool = True,
        tol_grad: float = 0.0,
        on_failure: str = "raise",
        random_state=0,
    ):
        super().__init__(
            lam=lam,
            max_epochs=max_epochs,
            evaluate_every=evaluate_every,
            record_accuracy=record_accuracy,
            tol_grad=tol_grad,
            on_failure=on_failure,
        )
        if local_passes < 1:
            raise ValueError(f"local_passes must be >= 1, got {local_passes}")
        if not 0.0 < alpha_init < 1.0:
            raise ValueError(f"alpha_init must be in (0, 1), got {alpha_init}")
        self.local_passes = int(local_passes)
        self.sigma_prime = sigma_prime
        self.newton_steps = int(newton_steps)
        self.alpha_init = float(alpha_init)
        self.random_state = random_state
        self._w: Optional[np.ndarray] = None
        self._n_total: int = 0
        self._last_extras: Dict[str, float] = {}

    def _initialize(self, cluster: SimulatedCluster, w0: np.ndarray) -> None:
        if cluster.n_classes != 2:
            raise ValueError(
                "CoCoA is implemented for binary problems only "
                f"(got {cluster.n_classes} classes): its dual formulation "
                "targets the binary logistic loss"
            )
        self._n_total = cluster.n_total
        self._last_extras = {}
        sigma = self.sigma_prime if self.sigma_prime is not None else float(cluster.n_workers)
        rng = check_random_state(self.random_state)

        # Per-worker dual state: alpha in (0,1)^{n_local}, signed labels b, and
        # the per-sample squared norms used by the coordinate subproblems.
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in cluster.workers]
        for worker in cluster.local_workers():
            X = worker.shard.X
            y = worker.shard.y
            if issparse(X):
                row_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel()
            else:
                row_sq = np.einsum("ij,ij->i", X, X)
            worker.state["alpha"] = np.full(worker.n_local_samples, self.alpha_init)
            worker.state["b"] = np.where(y == 0, 1.0, -1.0)
            worker.state["row_sq"] = row_sq
            worker.state["sigma_prime"] = sigma
            worker.state["rng"] = check_random_state(seeds[worker.worker_id])

        def initial_contribution(worker: Worker) -> np.ndarray:
            # Contribution of the initial alpha to v = (1/(lam n)) sum alpha_i b_i a_i.
            alpha, b = worker.state["alpha"], worker.state["b"]
            return np.asarray(worker.shard.X.T @ (alpha * b)).ravel() / (
                self.lam * self._n_total
            )

        # Set-up, not a round of the method: every shard's contribution is
        # summed in rank order, outside the modelled accounting.
        v = np.zeros(cluster.dim)
        for contrib in cluster.map_shards(initial_contribution):
            v += contrib
        self._w = v
        # Weight vector convention: the softmax-C2 global objective uses the
        # class-0 logit, which equals +v under the signed-label mapping above.

    def _plan_epoch(self, cluster: SimulatedCluster, epoch: int) -> RoundPlan:
        w = self._w
        if w is None:
            raise RuntimeError("CoCoA epoch requested before _initialize")
        lam = self.lam
        n = self._n_total
        newton_steps = self.newton_steps

        def local_sdca(worker: Worker, ctx: dict) -> tuple:
            X = worker.shard.X
            alpha = worker.state["alpha"]
            b = worker.state["b"]
            row_sq = worker.state["row_sq"]
            sigma = float(worker.state["sigma_prime"])
            rng = worker.state["rng"]
            n_local = worker.n_local_samples
            delta_v = np.zeros_like(w)

            for _ in range(self.local_passes):
                order = rng.permutation(n_local)
                for i in order:
                    a_row = X[i]
                    if issparse(a_row):
                        a_row = np.asarray(a_row.todense()).ravel()
                    else:
                        a_row = np.asarray(a_row).ravel()
                    # The CoCoA+ local subproblem multiplies *all* quadratic
                    # coupling through the shared vector by sigma', including
                    # the coupling to this worker's own earlier updates.
                    margin = float(b[i] * (a_row @ (w + sigma * delta_v)))
                    quad = sigma * row_sq[i] / (lam * n)
                    # Scalar Newton on h'(d) = log((a+d)/(1-a-d)) + margin + quad*d.
                    d = 0.0
                    a_i = alpha[i]
                    for _ in range(newton_steps):
                        u = np.clip(a_i + d, 1e-10, 1.0 - 1e-10)
                        h1 = np.log(u / (1.0 - u)) + margin + quad * d
                        h2 = 1.0 / (u * (1.0 - u)) + quad
                        d -= h1 / h2
                        d = float(np.clip(d, -a_i + 1e-10, 1.0 - a_i - 1e-10))
                    alpha[i] = a_i + d
                    if d != 0.0:
                        delta_v += (d * b[i] / (lam * n)) * a_row
            # Charge the local pass: each coordinate update is a handful of
            # O(p)-vector operations times the Newton steps.
            worker.objective.add_flops(
                self.local_passes * n_local * (6.0 * w.shape[0] + 10.0 * newton_steps)
            )
            # The worker's share of the dual's conjugate term travels with
            # its update: a rank holds no other worker's alpha.
            return delta_v, float(np.sum(_conjugate_logistic(alpha)))

        def commit(ctx: dict) -> np.ndarray:
            total_delta = ctx["total_delta"]
            self._w = w + total_delta
            conj = 0.0
            for _, share in ctx["deltas"]:
                conj += share
            dual_value = -conj / n - 0.5 * lam * float(self._w @ self._w)
            self._last_extras = {
                "dual_objective": dual_value,
                "delta_v_norm": float(np.linalg.norm(total_delta)),
            }
            return self._w

        # CoCoA+ adds the local updates (safe because sigma_prime >= n_workers);
        # a single all-reduce of delta_v is the round's only communication —
        # the one round the plan declares.
        plan = RoundPlan("cocoa")
        plan.local("deltas", local_sdca, label="sdca")
        plan.allreduce("total_delta", lambda ctx: [delta for delta, _ in ctx["deltas"]])
        plan.master(commit, name="w")
        plan.returns("w")
        return plan

    def _epoch_extras(self, cluster: SimulatedCluster) -> dict:
        return dict(self._last_extras)
