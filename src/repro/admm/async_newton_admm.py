"""Asynchronous (bounded-staleness, quorum-based) Newton-ADMM.

Synchronous Newton-ADMM already has the minimum of one synchronization point
per iteration, but that point is still a *full barrier*: a single persistent
straggler stretches every iteration to its pace.  This variant removes the
barrier.  Each worker runs its local inexact-Newton x-update on its own
timeline (on the cluster's :class:`~repro.distributed.engine.EventEngine`)
and pushes ``rho_i x_i - y_i`` to the master as soon as it finishes; the
master fires the closed-form consensus z-update (eq. 7) as soon as

* a **quorum** of workers has arrived since the last z-update, and
* no worker's latest contribution is more than ``max_staleness`` z-versions
  old (the bounded-staleness condition — the master stalls for stragglers
  only often enough to keep every contribution fresh within the bound).

Workers that miss a z-update keep computing against their stale consensus
variable and are folded in when they arrive (their previous payload stays in
the master's running sum until then, as in stale-synchronous consensus
methods à la Tutunov et al.'s distributed Newton setting).  Staleness is
therefore *measured from the schedule* and recorded per z-update in
:attr:`staleness_log`.

Communication stays one round per z-update (a reduce of the arrived payloads
joint with the z broadcast), so the paper's "single round per iteration"
invariant carries over to the asynchronous execution path.

Under an injected :class:`~repro.distributed.faults.FailureModel` the quorum
schedule *rides through* worker loss: a crashed worker's in-flight push is
dropped, its held contribution leaves the master's running sums (the
consensus update reweights over the survivors), quorum and the staleness gate
shrink to the live membership, and a restarted worker rejoins with a fresh
x-update from its last checkpointed state.  Strict-sync Newton-ADMM, by
contrast, raises :class:`~repro.distributed.faults.WorkerLostError` or stalls
— the difference the ``ablation-faults`` experiment measures.

Network partitions (:class:`~repro.distributed.faults.PartitionModel`) are
weaker than crashes and the schedule rides through them too: a cut worker
keeps *computing* against its stale consensus variable — its timeline fills
with ``unreachable`` segments instead of freezing — and its push is simply
delayed to the heal, at which point the late arrival is folded into exactly
one z-update (the master replaces the held payload, so nothing is counted
twice) and the bounded-staleness gate resumes covering it.  The
``ablation-partitions`` experiment measures this against a synchronous run
that must stall for the whole window.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.admm.newton_admm import NewtonADMM, max_iter_share
from repro.admm.penalty import PenaltyObservation, PolicyFactory, make_penalty_policy
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
from repro.distributed.worker import Worker


class AsyncNewtonADMM(NewtonADMM):
    """Event-driven Newton-ADMM with quorum z-updates and bounded staleness.

    One "epoch" of this solver is one z-update (one consensus iteration), so
    ``max_epochs`` counts z-updates; under stragglers a z-update completes in
    roughly the quorum's time rather than the slowest worker's.

    Parameters (beyond :class:`~repro.admm.newton_admm.NewtonADMM`)
    ----------
    cg_max_iter:
        Same default as the synchronous solver: 6 local CG iterations,
        where the figure experiments pin the paper's 10 (evidence in
        ``docs/performance.md``, "Local CG budget").
    quorum:
        How many arrivals trigger a z-update: an ``int`` count, a float in
        ``(0, 1]`` interpreted as a fraction of the workers (rounded up), or
        ``None`` for ``max(n_workers - 1, 1)`` — tolerate one straggler.
    max_staleness:
        Upper bound on how many z-versions old any worker's contribution may
        be when a z-update fires; the master waits for stragglers that would
        violate it.  Must be >= 1.
    """

    name = "async_newton_admm"

    #: event-queue schedule has no SPMD replica form; on
    #: ``engine="process"`` this solver runs on the in-process
    #: simulated event engine instead of real worker processes.
    supports_process_engine = False

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
        quorum: Union[int, float, None] = None,
        max_staleness: int = 10,
        evaluate_every: int = 1,
        record_accuracy: bool = True,
        tol_grad: float = 0.0,
    ):
        super().__init__(
            lam=lam,
            max_epochs=max_epochs,
            rho0=rho0,
            penalty=penalty,
            local_newton_iters=local_newton_iters,
            cg_max_iter=cg_max_iter,
            cg_tol=cg_tol,
            line_search_max_iter=line_search_max_iter,
            over_relaxation=over_relaxation,
            evaluate_every=evaluate_every,
            record_accuracy=record_accuracy,
            tol_grad=tol_grad,
        )
        if max_staleness < 1:
            raise ValueError(f"max_staleness must be >= 1, got {max_staleness}")
        # Floats are always fractions of the cluster (1.0 = every worker),
        # ints are always absolute counts (1 = first arrival fires).
        if isinstance(quorum, float):
            if not 0.0 < quorum <= 1.0:
                raise ValueError(
                    f"fractional quorum must lie in (0, 1], got {quorum}"
                )
        elif quorum is not None and int(quorum) < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        self.quorum = quorum
        self.max_staleness = int(max_staleness)
        self._staleness_log: List[Dict[str, float]] = []
        self._pending: List[int] = []
        self._contrib: Dict[int, object] = {}
        self._rho: Dict[int, float] = {}
        self._contrib_version: Dict[int, int] = {}
        self._z_version = 0
        self._p2p_seconds = 0.0
        self._payload_bytes = 0.0
        #: crashed workers -> scheduled restart time (inf = never)
        self._dead: Dict[int, float] = {}
        #: arrivals delivered to the master, per worker (run state)
        self._arrivals: Dict[int, int] = {}
        #: arrivals never folded: their worker was lost (never-healing cut,
        #: or a crash during the delayed pull) between arriving and the fire
        self._dropped_arrivals = 0

    def _resolve_quorum(self, n_workers: int) -> int:
        if self.quorum is None:
            q = max(n_workers - 1, 1)
        elif isinstance(self.quorum, float):
            q = int(np.ceil(self.quorum * n_workers))
        else:
            q = int(self.quorum)
        if not 1 <= q <= n_workers:
            raise ValueError(
                f"quorum {q} out of range for {n_workers} workers"
            )
        return q

    # -- scheduling ----------------------------------------------------------
    def _start_x_update(self, cluster: SimulatedCluster, worker: Worker) -> None:
        """Run the worker's local inexact-Newton solve against its *local*
        view of the consensus variable and post the push event.

        The numbers are computed eagerly (the simulation is in-process) but
        the completion is scheduled on the worker's own timeline: modelled
        compute seconds (straggler-scaled, keyed by worker id) plus the push
        transfer, which travels while other workers keep computing.

        Under fault injection, a crash inside the cycle freezes the worker's
        timeline at the crash and drops the push: the in-flight contribution
        never reaches the master (the local state acts as a checkpoint a
        restarted worker resumes from).
        """
        engine = cluster.engine
        fs = cluster.fault_state
        start = engine.time_of(worker.worker_id)
        if fs is not None:
            restart = crashed_at_start(fs, worker.worker_id, start)
            if restart is not None:
                self._dead[worker.worker_id] = restart
                return
        worker.mark_flops()
        update = self._x_update(cluster, worker, worker.get_vector("z_local"))
        seconds = worker.modelled_compute_time() * cluster.straggler_factor(
            worker.worker_id
        )
        if fs is not None:
            # Crashed mid-cycle: partial work on the timeline, no push — the
            # in-flight contribution is dropped.
            restart = crash_guard(
                fs, engine, worker.worker_id, start, seconds,
                self._p2p_seconds, busy_label="x-update", comm_label="push",
            )
            if restart is not None:
                self._dead[worker.worker_id] = restart
                return
        engine.compute(worker.worker_id, seconds, label="x-update")
        if fs is not None and fs.has_partitions:
            # Behind a cut the worker keeps its computed state but the push
            # cannot cross the link: its timeline fills with "unreachable"
            # until the heal and the arrival below is delayed accordingly.
            # A worker lost during the delayed transfer (never-healing cut,
            # or a crash before the push lands) drops the payload entirely.
            restart = partition_transfer_guard(
                fs, engine, worker.worker_id, self._p2p_seconds,
                comm_label="push",
            )
            if restart is not None:
                self._dead[worker.worker_id] = restart
                return
        else:
            engine.communicate(
                worker.worker_id, self._p2p_seconds, label="push"
            )
        engine.post(
            worker.worker_id,
            0.0,
            payload={**update, "version": int(worker.state["z_version"])},
        )

    # -- hooks ---------------------------------------------------------------
    def _initialize(self, cluster: SimulatedCluster, w0) -> None:
        backend = cluster.backend
        w0 = backend.as_vector(w0, cluster.dim, name="w0")
        self._z = copy_array(w0)
        self._last_extras = {}
        self._staleness_log = []
        rho0 = self.rho0 if self.rho0 is not None else 1.0 / cluster.n_total
        if self._custom_policy_factory is not None:
            policy_factory: PolicyFactory = self._custom_policy_factory
            rho0 = policy_factory().initial_rho()
        else:
            policy_factory = make_penalty_policy(self.penalty, rho0=rho0)

        self._resolve_quorum(cluster.n_workers)  # validate early
        self._pending = []
        self._contrib = {}
        self._rho = {}
        self._contrib_version = {}
        self._z_version = 0
        self._dead = {}
        self._arrivals = {}
        self._dropped_arrivals = 0
        self._payload_bytes = float(_nbytes(w0))
        self._p2p_seconds = cluster.network.point_to_point(self._payload_bytes)

        for worker in cluster.workers:
            worker.set_vector("x", w0)
            worker.set_vector(
                "y", backend.zeros(cluster.dim, dtype=getattr(w0, "dtype", None))
            )
            worker.set_vector("z_local", w0)
            worker.state["rho"] = rho0
            worker.state["policy"] = policy_factory()
            worker.state["z_version"] = 0
            # Until a worker first reports, the master holds its initial
            # contribution rho0 * x_i - y_i = rho0 * w0.
            self._contrib[worker.worker_id] = rho0 * copy_array(w0)
            self._rho[worker.worker_id] = rho0
            self._contrib_version[worker.worker_id] = 0
        for worker in cluster.workers:
            self._start_x_update(cluster, worker)

    def _revive(self, cluster: SimulatedCluster, worker_id: int, restart: float) -> None:
        """Fold a restarted worker back in: downtime onto its timeline, then a
        fresh x-update from its last checkpointed state."""
        fs = cluster.fault_state
        fs.note_restart(worker_id, restart)
        fs.catch_up_timeline(cluster.engine, worker_id, restart)
        self._dead.pop(worker_id, None)
        self._start_x_update(cluster, cluster.workers[worker_id])

    def _next_event(self, cluster: SimulatedCluster):
        """Earliest arrival, reviving restartable crashed workers first."""
        if not self._dead:
            return cluster.engine.pop()
        return pop_next_arrival(
            cluster.engine,
            self._dead,
            lambda wid, r: self._revive(cluster, wid, r),
        )

    def _can_fire(self, quorum: int) -> bool:
        if len(self._pending) < quorum:
            return False
        # Bounded staleness gates on *in-flight* workers only: a pending
        # (arrived) worker's contribution is the freshest it can offer and the
        # fire is what refreshes it, whereas waiting for an in-flight worker
        # genuinely brings newer data.  Every non-pending worker has exactly
        # one in-flight event, so a blocked fire always makes progress.
        # Crashed workers cannot bring fresh data and are excluded.
        pending = set(self._pending)
        lagging = [
            version
            for worker_id, version in self._contrib_version.items()
            if worker_id not in pending and worker_id not in self._dead
        ]
        if not lagging:
            return True
        # Strict bound: an in-flight worker that started from version v can
        # rejoin one fire later at the earliest, so allowing fires only while
        # v > z_version - max_staleness guarantees no contribution older than
        # max_staleness versions is ever folded into a z-update.
        return min(lagging) > self._z_version - self.max_staleness

    def _epoch(self, cluster: SimulatedCluster, epoch: int):
        """Pop arrivals until one z-update fires; return the new consensus."""
        if self._z is None:
            raise RuntimeError("AsyncNewtonADMM._epoch called before _initialize")
        engine = cluster.engine
        backend = cluster.backend
        quorum = self._resolve_quorum(cluster.n_workers)
        newton_iters: List[float] = []
        cg_iters: List[float] = []
        cg_exit_reasons: List[List[str]] = []

        while True:
            event = self._next_event(cluster)
            data = event.payload
            worker_id = event.worker_id
            self._arrivals[worker_id] = self._arrivals.get(worker_id, 0) + 1
            self._contrib[worker_id] = data["payload"]
            self._rho[worker_id] = data["rho"]
            self._contrib_version[worker_id] = data["version"]
            if worker_id not in self._pending:
                self._pending.append(worker_id)
            newton_iters.append(float(data["newton_iters"]))
            cg_iters.append(float(data["cg_iters"]))
            cg_exit_reasons.append(data["cg_exit_reasons"])
            # Quorum shrinks to the live membership: the schedule rides
            # through worker loss instead of waiting for the dead.
            n_alive = cluster.n_workers - len(self._dead)
            if self._can_fire(max(1, min(quorum, n_alive))):
                break

        # ---- consensus z-update at the quorum time --------------------------
        # Crashed workers' held contributions leave the running sums: the
        # consensus update reweights over the surviving membership (eq. 7
        # with the live rho_i only).
        fired_at = event.time
        self._z_version += 1
        live = [wid for wid in sorted(self._contrib) if wid not in self._dead]
        rho_sum = float(sum(self._rho[wid] for wid in live))
        payload_sum = None
        for worker_id in live:
            contribution = self._contrib[worker_id]
            payload_sum = (
                copy_array(contribution)
                if payload_sum is None
                else payload_sum + contribution
            )
        z_new = payload_sum / (self.lam + rho_sum)
        ages = [
            float(self._z_version - 1 - self._contrib_version[wid])
            for wid in live
        ]

        # One communication round per z-update: the arrived payloads reduce to
        # the master jointly with the z broadcast back to the quorum.
        comm_seconds = 2.0 * self._p2p_seconds
        cluster.comm.log.record(
            "async_reduce",
            self._payload_bytes * len(self._pending),
            self._p2p_seconds,
            new_round=True,
        )
        cluster.comm.log.record(
            "async_bcast",
            self._payload_bytes * len(self._pending),
            self._p2p_seconds,
            new_round=False,
        )

        # ---- fold the quorum back in: dual updates + next cycles -----------
        primal_sq = 0.0
        dual_sq = 0.0
        fs = cluster.fault_state
        folded: List[int] = []
        for worker_id in self._pending:
            worker = cluster.workers[worker_id]
            engine.wait_until(worker.worker_id, fired_at, label="quorum")
            if fs is not None and fs.has_partitions:
                # A worker cut between its arrival and the fire cannot pull
                # the fresh z until the partition heals — and may be lost
                # while it waits (never-healing cut, or a crash before the
                # pull lands), in which case its dual update never happens.
                restart = partition_transfer_guard(
                    fs, engine, worker.worker_id, self._p2p_seconds,
                    comm_label="pull-z",
                )
                if restart is not None:
                    self._dead[worker.worker_id] = restart
                    self._dropped_arrivals += 1
                    continue
            else:
                engine.communicate(
                    worker.worker_id, self._p2p_seconds, label="pull-z"
                )
            folded.append(worker_id)
            z_old_local = worker.get_vector("z_local")
            x_relaxed = worker.get_vector("x_relaxed")
            y = worker.get_vector("y")
            y_hat = worker.get_vector("y_hat")
            rho = float(worker.state["rho"])
            y_new = y + rho * (z_new - x_relaxed)
            primal_res = backend.norm(x_relaxed - z_new)
            dual_res = rho * backend.norm(z_new - z_old_local)
            obs = PenaltyObservation(
                iteration=self._z_version,
                x_new=x_relaxed,
                z_new=z_new,
                z_old=z_old_local,
                y_new=y_new,
                y_old=y,
                y_hat=y_hat,
                rho=rho,
                primal_residual=primal_res,
                dual_residual=dual_res,
            )
            new_rho = float(worker.state["policy"].update(obs))
            worker.set_vector("y", y_new)
            worker.set_vector("z_local", z_new)
            worker.state["rho"] = new_rho
            worker.state["z_version"] = self._z_version
            worker.objective.add_flops(10.0 * worker.dim)
            primal_sq += primal_res**2
            dual_sq += dual_res**2
            self._start_x_update(cluster, worker)
        n_folded = len(folded)
        self._pending = []

        # Restarts that fell due before this z-update rejoin now even if the
        # quorum never needed their events, so the recorded fault events and
        # the live membership reflect the schedule honestly.
        for wid, r in sorted(self._dead.items()):
            if r <= fired_at:
                self._revive(cluster, wid, r)

        engine.advance_global_to(
            fired_at + self._p2p_seconds, comm_seconds=comm_seconds
        )

        self._staleness_log.append(
            {
                "z_version": float(self._z_version),
                "time": float(fired_at),
                "mean_staleness": float(np.mean(ages)),
                "max_staleness": float(np.max(ages)),
                "quorum_size": float(n_folded),
                # The arrivals folded into this fire, in fold order.  Each
                # arrival passes the staleness gate exactly once: a rejoined
                # (healed / restarted) worker's held payload is *replaced* on
                # arrival, never summed twice.
                "folded_workers": [int(w) for w in folded],
            }
        )
        self._z = z_new
        self._last_extras = {
            "primal_residual": float(np.sqrt(primal_sq)),
            "dual_residual": float(np.sqrt(dual_sq)),
            "mean_rho": float(np.mean([self._rho[wid] for wid in live])),
            "quorum_size": float(n_folded),
            "mean_staleness": float(np.mean(ages)),
            "max_staleness": float(np.max(ages)),
            "local_newton_iters": float(np.mean(newton_iters)),
            "local_cg_iters": float(np.mean(cg_iters)),
            "local_cg_max_iter_share": max_iter_share(cg_exit_reasons),
            "alive_workers": float(cluster.n_workers - len(self._dead)),
        }
        return z_new

    @property
    def staleness_log(self) -> List[Dict[str, float]]:
        """Measured contribution staleness (z-versions) per fired z-update.

        Run state, not a hyper-parameter: exposed read-only so
        :meth:`hyperparameters` (which walks instance attributes) never
        embeds a previous run's log in provenance.
        """
        return self._staleness_log

    @property
    def arrival_counts(self) -> Dict[int, int]:
        """Arrivals the master received, per worker (run state, read-only).

        Every arrival is folded into exactly one z-update — except an
        arrival whose worker was *lost* between arriving and the fire (a
        never-healing cut, or a crash before its delayed pull landed), which
        is dropped instead (counted in :attr:`dropped_arrivals`).  So
        ``sum(len(s["folded_workers"]) for s in staleness_log)`` equals
        ``sum(arrival_counts.values()) - dropped_arrivals`` — the invariant
        the partition ablation asserts to show a healed worker's stale
        contribution is never double-counted.
        """
        return dict(self._arrivals)

    @property
    def dropped_arrivals(self) -> int:
        """Arrivals never folded: their worker was lost between arriving and
        the fire — behind a never-healing partition, or crashed before its
        delayed pull could land (run state)."""
        return self._dropped_arrivals

    def hyperparameters(self) -> dict:
        out = DistributedSolver.hyperparameters(self)
        out["quorum"] = self.quorum if self.quorum is not None else "n-1"
        return out
