"""Synchronous distributed mini-batch SGD (the first-order baseline of Figure 4).

Every optimization step, each worker computes the gradient of a 128-sample
mini-batch from its shard; the gradients are averaged with an all-reduce and a
single SGD update is applied.  One communication round *per mini-batch step*
— versus one per outer iteration for Newton-ADMM — is exactly the
communication-overhead contrast the paper draws, and it is what the modelled
epoch times expose.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.schedule import RoundPlan
from repro.distributed.solver_base import DistributedSolver
from repro.distributed.worker import Worker
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.utils.rng import check_random_state


class SynchronousSGD(DistributedSolver):
    """Synchronous data-parallel mini-batch SGD.

    Parameters
    ----------
    step_size:
        Learning rate (the paper sweeps 1e-8..1e8 and reports the best).
    batch_size:
        Per-worker mini-batch size (paper: 128).
    momentum:
        Optional classical momentum.
    steps_per_epoch:
        Override the number of synchronous steps per recorded epoch; by
        default one epoch is a full pass over the largest shard.
    """

    name = "sync_sgd"

    def __init__(
        self,
        *,
        lam: float = 1e-5,
        max_epochs: int = 100,
        step_size: float = 0.1,
        batch_size: int = 128,
        momentum: float = 0.0,
        steps_per_epoch: Optional[int] = None,
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
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.step_size = float(step_size)
        self.batch_size = int(batch_size)
        self.momentum = float(momentum)
        self.steps_per_epoch = steps_per_epoch
        self.random_state = random_state
        self._w: Optional[np.ndarray] = None
        self._velocity: Optional[np.ndarray] = None
        self._last_extras: Dict[str, float] = {}

    def _initialize(self, cluster: SimulatedCluster, w0: np.ndarray) -> None:
        self._w = w0.copy()
        self._velocity = np.zeros_like(w0)
        self._last_extras = {}
        rng = check_random_state(self.random_state)
        # Every worker's seed is drawn, in rank order, wherever it runs.
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in cluster.workers]
        for worker in cluster.local_workers():
            # A local mean-scaled loss used only to draw mini-batch gradients;
            # its cost is charged explicitly to the counting wrapper.
            worker.state["local_mean_loss"] = SoftmaxCrossEntropy(
                worker.shard.X,
                worker.shard.y,
                worker.shard.n_classes,
                scale="mean",
                backend=cluster.backend,
                precision=cluster.precision,
            )
            worker.state["rng"] = check_random_state(seeds[worker.worker_id])

    def _steps_in_epoch(self, cluster: SimulatedCluster) -> int:
        if self.steps_per_epoch is not None:
            return max(int(self.steps_per_epoch), 1)
        largest_shard = max(w.n_local_samples for w in cluster.workers)
        return max(int(np.ceil(largest_shard / self.batch_size)), 1)

    def _local_batch_gradient(self, worker: Worker, w: np.ndarray) -> np.ndarray:
        loss = worker.state["local_mean_loss"]
        rng = worker.state["rng"]
        n_local = worker.n_local_samples
        batch = min(self.batch_size, n_local)
        idx = rng.choice(n_local, size=batch, replace=False)
        grad = loss.minibatch(idx).gradient(w)
        # The counting wrapper never sees the mini-batch object, so the
        # cost is charged explicitly at the batch/shard FLOP ratio.
        worker.objective.add_flops(
            loss.flops_gradient() * batch / max(n_local, 1)
        )
        return grad

    def _plan_epoch(self, cluster: SimulatedCluster, epoch: int) -> RoundPlan:
        if self._w is None or self._velocity is None:
            raise RuntimeError("SynchronousSGD epoch requested before _initialize")
        lam = self.lam
        n_steps = self._steps_in_epoch(cluster)

        # One (grad, all-reduce, update) triple repeated ``n_steps`` times;
        # context keys are reused and the body is declared once, so both the
        # scratch and the recorded schedule stay O(1) however many steps an
        # epoch has.  ``n_steps`` declared rounds — the method's defining
        # communication cost, one all-reduce per mini-batch step.
        plan = RoundPlan("sync_sgd", context={"w": self._w, "velocity": self._velocity})

        def update(ctx: dict) -> None:
            mean_grad = ctx["step_grad_sum"] / cluster.n_workers
            grad = mean_grad + lam * ctx["w"]
            ctx["velocity"] = self.momentum * ctx["velocity"] - self.step_size * grad
            ctx["w"] = ctx["w"] + ctx["velocity"]

        def sgd_step(body: RoundPlan) -> None:
            body.local(
                "step_grads",
                lambda worker, ctx: self._local_batch_gradient(worker, ctx["w"]),
                label="minibatch-grad",
            )
            body.allreduce("step_grad_sum", lambda ctx: ctx["step_grads"])
            body.master(update)

        plan.repeat(n_steps, sgd_step)

        def commit(ctx: dict) -> np.ndarray:
            self._w = ctx["w"]
            self._velocity = ctx["velocity"]
            self._last_extras = {
                "steps": float(n_steps),
                "step_size": self.step_size,
            }
            return self._w

        plan.master(commit, name="w")
        plan.returns("w")
        return plan

    def _epoch_extras(self, cluster: SimulatedCluster) -> dict:
        return dict(self._last_extras)
