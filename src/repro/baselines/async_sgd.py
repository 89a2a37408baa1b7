"""Asynchronous parameter-server SGD, run on the discrete-event engine.

The paper's first-order comparison (§3, "Newton-ADMM outperforms
state-of-the-art distributed First-order methods") notes that asynchronous
SGD "weakens the rate of convergence due to the updates of older gradients to
global weight" and therefore compares only against synchronous SGD.  This
baseline implements the asynchronous variant so that claim can be reproduced
rather than assumed.

Unlike the original closed-form model (which *assumed* a steady-state
staleness of ``N - 1`` and a per-update time formula), the schedule is now
simulated event by event on the cluster's
:class:`~repro.distributed.engine.EventEngine`:

* every worker cycles pull → compute → push on its own timeline (persistent
  stragglers and jitter stretch individual cycles via the cluster's
  :class:`~repro.distributed.stragglers.StragglerModel`, keyed by worker id);
* pushed gradients travel as in-flight events and the server applies them in
  arrival order, serializing its receive+send handling;
* the *staleness of every update is measured* — the number of server steps
  between the weights a gradient was computed at and the weights it is
  applied to — and recorded per update in :attr:`staleness_log`.

Passing an explicit ``staleness=k`` switches to the forced-staleness mode
(the gradient for step ``t`` is evaluated at the weights of step ``t - k``)
so ablations can isolate the staleness effect; the timing still comes from
the simulated schedule.

Under an injected :class:`~repro.distributed.faults.FailureModel` the
parameter-server schedule rides through worker loss naturally: a crashed
worker's in-flight gradient is dropped, the server keeps applying the
survivors' updates, and a restarted worker pulls fresh weights and resumes
cycling.  Only the loss of *every* worker with no scheduled restart raises
:class:`~repro.distributed.faults.WorkerLostError`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.backend import copy_array
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.comm import _nbytes
from repro.distributed.faults import (
    crash_guard,
    crashed_at_start,
    partition_transfer_guard,
    pop_next_arrival,
)
from repro.distributed.solver_base import DistributedSolver
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.utils.rng import check_random_state


class AsynchronousSGD(DistributedSolver):
    """Parameter-server SGD with stale gradient updates.

    Parameters
    ----------
    step_size:
        Learning rate.
    batch_size:
        Per-worker mini-batch size (paper's synchronous baseline uses 128).
    staleness:
        ``None`` (default): staleness *emerges* from the simulated schedule
        and is recorded per update.  An explicit integer forces the classic
        fixed-staleness model (``0`` = always-fresh serial updates).
    steps_per_epoch:
        Server updates per recorded epoch; by default enough for every worker
        to pass over its shard once (matching the synchronous baseline's
        sample throughput).
    """

    name = "async_sgd"

    #: event-queue schedule has no SPMD replica form; on
    #: ``engine="process"`` this solver runs on the in-process
    #: simulated event engine instead of real worker processes.
    supports_process_engine = False

    def __init__(
        self,
        *,
        lam: float = 1e-5,
        max_epochs: int = 100,
        step_size: float = 0.1,
        batch_size: int = 128,
        staleness: Optional[int] = None,
        steps_per_epoch: Optional[int] = None,
        evaluate_every: int = 1,
        record_accuracy: bool = True,
        tol_grad: float = 0.0,
        random_state=0,
    ):
        super().__init__(
            lam=lam,
            max_epochs=max_epochs,
            evaluate_every=evaluate_every,
            record_accuracy=record_accuracy,
            tol_grad=tol_grad,
        )
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if staleness is not None and staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self.step_size = float(step_size)
        self.batch_size = int(batch_size)
        self.staleness = staleness
        self.steps_per_epoch = steps_per_epoch
        self.random_state = random_state
        self._w = None
        self._history: Optional[deque] = None
        self._version = 0
        self._server_free = 0.0
        self._grad_bytes = 0.0
        self._push_seconds = 0.0
        self._last_extras: Dict[str, float] = {}
        self._staleness_log: List[int] = []
        #: crashed workers -> scheduled restart time (inf = never)
        self._dead: Dict[int, float] = {}

    # -- schedule helpers ----------------------------------------------------
    def _cycle_compute_seconds(self, cluster: SimulatedCluster, worker) -> float:
        """Modelled seconds of one mini-batch gradient on ``worker``."""
        loss = worker.state["local_mean_loss"]
        frac = min(self.batch_size, worker.n_local_samples) / max(
            worker.n_local_samples, 1
        )
        seconds = worker.device.compute_time(loss.flops_gradient() * frac)
        return seconds * cluster.straggler_factor(worker.worker_id)

    def _start_cycle(self, cluster: SimulatedCluster, worker) -> None:
        """Begin one pull→compute→push cycle on the worker's timeline.

        The worker snapshots the server weights it just pulled; the push is
        charged to its timeline and the arrival is posted as an in-flight
        event, so the message travels while other workers keep computing.  A
        crash inside the cycle freezes the timeline and drops the push — the
        in-flight gradient never reaches the server.
        """
        engine = cluster.engine
        fs = cluster.fault_state
        wid = worker.worker_id
        start = engine.time_of(wid)
        if fs is not None:
            restart = crashed_at_start(fs, wid, start)
            if restart is not None:
                self._dead[wid] = restart
                return
        worker.state["w_pulled"] = copy_array(self._w)
        worker.state["pulled_version"] = self._version
        seconds = self._cycle_compute_seconds(cluster, worker)
        if fs is not None:
            restart = crash_guard(
                fs, engine, wid, start, seconds, self._push_seconds,
                busy_label="minibatch-grad", comm_label="push",
            )
            if restart is not None:
                self._dead[wid] = restart
                return
        engine.compute(wid, seconds, label="minibatch-grad")
        if fs is not None and fs.has_partitions:
            # The gradient is computed but cannot cross an open cut: the
            # push (and therefore the server's receipt) is delayed to the
            # heal; a worker lost during the delayed transfer (never-healing
            # cut, or a crash before the push lands) drops the gradient.
            restart = partition_transfer_guard(
                fs, engine, wid, self._push_seconds, comm_label="push"
            )
            if restart is not None:
                self._dead[wid] = restart
                return
        else:
            engine.communicate(
                worker.worker_id, self._push_seconds, label="push"
            )
        engine.post(worker.worker_id, 0.0)

    def _revive(self, cluster: SimulatedCluster, worker_id: int, restart: float) -> None:
        """Restarted worker: downtime onto its timeline, then a fresh cycle."""
        fs = cluster.fault_state
        fs.note_restart(worker_id, restart)
        fs.catch_up_timeline(cluster.engine, worker_id, restart)
        self._dead.pop(worker_id, None)
        self._start_cycle(cluster, cluster.workers[worker_id])

    def _next_event(self, cluster: SimulatedCluster):
        """Earliest arrival, reviving restartable crashed workers first."""
        if not self._dead:
            return cluster.engine.pop()
        return pop_next_arrival(
            cluster.engine,
            self._dead,
            lambda wid, r: self._revive(cluster, wid, r),
        )

    # -- hooks ---------------------------------------------------------------
    def _initialize(self, cluster: SimulatedCluster, w0) -> None:
        self._w = copy_array(w0)
        self._version = 0
        self._server_free = 0.0
        self._last_extras = {}
        self._staleness_log = []
        self._dead = {}
        if self.staleness is not None:
            # Forced-staleness mode: history of past server iterates; index 0
            # is the most stale one.
            k = int(self.staleness)
            self._history = deque([copy_array(w0)] * (k + 1), maxlen=k + 1)
        else:
            self._history = None
        self._grad_bytes = float(_nbytes(w0))
        self._push_seconds = cluster.network.point_to_point(self._grad_bytes)
        rng = check_random_state(self.random_state)
        for worker in cluster.workers:
            worker.state["local_mean_loss"] = SoftmaxCrossEntropy(
                worker.shard.X,
                worker.shard.y,
                worker.shard.n_classes,
                scale="mean",
                backend=cluster.backend,
                precision=cluster.precision,
            )
            worker.state["rng"] = check_random_state(int(rng.integers(0, 2**31 - 1)))
        for worker in cluster.workers:
            self._start_cycle(cluster, worker)

    @property
    def staleness_log(self) -> List[int]:
        """Measured staleness of every applied update, in server steps.

        Run state, not a hyper-parameter: exposed read-only so
        :meth:`hyperparameters` (which walks instance attributes) never
        embeds a previous run's log in provenance.
        """
        return self._staleness_log

    def _updates_in_epoch(self, cluster: SimulatedCluster) -> int:
        if self.steps_per_epoch is not None:
            return max(int(self.steps_per_epoch), 1)
        per_worker = [
            max(int(np.ceil(w.n_local_samples / self.batch_size)), 1)
            for w in cluster.workers
        ]
        return int(sum(per_worker))

    def _epoch(self, cluster: SimulatedCluster, epoch: int):
        if self._w is None:
            raise RuntimeError("AsynchronousSGD._epoch called before _initialize")
        engine = cluster.engine
        lam = self.lam
        n_updates = self._updates_in_epoch(cluster)
        # The server serializes one receive + one send per update.
        server_handling = 2.0 * self._push_seconds
        staleness_this_epoch: List[int] = []
        epoch_start = engine.now
        epoch_end = engine.now

        for _ in range(n_updates):
            event = self._next_event(cluster)
            worker = cluster.workers[event.worker_id]
            # Server applies arrivals in order, one at a time.
            applied_at = max(event.time, self._server_free)
            self._server_free = applied_at + server_handling
            staleness = self._version - int(worker.state["pulled_version"])

            loss = worker.state["local_mean_loss"]
            rng = worker.state["rng"]
            n_local = worker.n_local_samples
            batch = min(self.batch_size, n_local)
            idx = rng.choice(n_local, size=batch, replace=False)
            if self._history is not None:
                stale_w = self._history[0]  # forced-staleness ablation mode
                staleness = int(self.staleness)
            else:
                stale_w = worker.state["w_pulled"]
            grad = loss.minibatch(idx).gradient(stale_w) + lam * stale_w
            worker.objective.add_flops(
                loss.flops_gradient() * batch / max(n_local, 1)
            )
            self._w = self._w - self.step_size * grad
            self._version += 1
            if self._history is not None:
                self._history.append(copy_array(self._w))
            staleness_this_epoch.append(staleness)
            self._staleness_log.append(staleness)

            # The worker was idle since its push; the server spends
            # ``push_seconds`` ingesting its gradient after applying it, then
            # ``push_seconds`` sending the fresh weights back — the worker's
            # pull completes exactly when the server frees up.
            engine.wait_until(
                worker.worker_id,
                applied_at + self._push_seconds,
                label="server-queue",
            )
            fs = cluster.fault_state
            if fs is not None and fs.has_partitions:
                # A worker cut while its gradient sat in the server queue
                # cannot receive the fresh weights until the link heals (and
                # may be lost waiting, in which case its pull never happens).
                restart = partition_transfer_guard(
                    fs, cluster.engine, worker.worker_id,
                    self._push_seconds, comm_label="pull",
                )
                if restart is not None:
                    self._dead[worker.worker_id] = restart
                    continue
            else:
                engine.communicate(
                    worker.worker_id, self._push_seconds, label="pull"
                )
            self._start_cycle(cluster, worker)
            epoch_end = max(epoch_end, self._server_free)

        # Restarts that fell due during the epoch but were never needed to
        # feed the update loop still happen: the workers rejoin now so the
        # recorded events and the next epoch's schedule reflect them.
        for wid, r in sorted(self._dead.items()):
            if r <= epoch_end:
                self._revive(cluster, wid, r)

        # Global modelled time: the epoch ends when the server has handled
        # the last update; its serialized handling bounds the comm share.
        comm_seconds = n_updates * server_handling
        engine.advance_global_to(epoch_end, comm_seconds=comm_seconds)
        cluster.comm.log.record(
            "async_p2p",
            self._grad_bytes * 2 * n_updates,
            min(comm_seconds, max(engine.now - epoch_start, 0.0)),
            new_round=False,
        )

        arr = np.asarray(staleness_this_epoch, dtype=np.float64)
        self._last_extras = {
            "updates": float(n_updates),
            "staleness": float(arr.mean()) if arr.size else 0.0,
            "max_staleness": float(arr.max()) if arr.size else 0.0,
            "staleness_mode": "fixed" if self._history is not None else "measured",
            "step_size": self.step_size,
            "alive_workers": float(cluster.n_workers - len(self._dead)),
        }
        return self._w

    def _epoch_extras(self, cluster: SimulatedCluster) -> dict:
        return dict(self._last_extras)
