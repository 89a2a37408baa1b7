"""The simulated cluster: workers + communicator + clocks.

``SimulatedCluster`` owns the data sharding, one :class:`Worker` per node, a
:class:`Communicator` over a configurable interconnect, and the two clocks
(measured wall time, modelled cluster time).  Distributed solvers are written
against this object only, so swapping the interconnect, the device model or
the execution engine never touches algorithm code.
"""

from __future__ import annotations

import inspect
import math
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.backend import ArrayBackend, BackendLike, get_backend, resolve_precision, storage_dtype
from repro.datasets.base import ClassificationDataset
from repro.datasets.sharding import gather_shard, shard_indices
from repro.distributed.comm import Communicator
from repro.distributed.device import DeviceModel
from repro.distributed.engine import EventEngine, resolve_engine
from repro.distributed.faults import (
    FAULT_POLICIES,
    FailureModel,
    PartitionError,
    WorkerLostError,
)
from repro.distributed.network import NetworkModel, infiniband_100g
from repro.distributed.stragglers import StragglerModel
from repro.distributed.worker import Worker
from repro.objectives.base import Objective, RegularizedObjective
from repro.objectives.logistic import BinaryLogistic
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.base import CountingObjective
from repro.utils.timer import SimulatedClock, Stopwatch

LossFactory = Callable[[ClassificationDataset, int], Objective]


def _softmax_factory(
    shard: ClassificationDataset,
    n_total: int,
    backend: BackendLike = None,
    precision: Optional[str] = None,
) -> Objective:
    return SoftmaxCrossEntropy(
        shard.X, shard.y, shard.n_classes, scale=1.0 / n_total, backend=backend,
        precision=precision,
    )


def _logistic_factory(
    shard: ClassificationDataset,
    n_total: int,
    backend: BackendLike = None,
    precision: Optional[str] = None,
) -> Objective:
    return BinaryLogistic(
        shard.X, shard.y, scale=1.0 / n_total, backend=backend, precision=precision
    )


LOSS_FACTORIES = {  # repro-lint: ignore[RPR003] populated at import, identical in every process
    "softmax": _softmax_factory,
    "logistic": _logistic_factory,
}


def _call_loss_factory(
    factory: LossFactory,
    shard: ClassificationDataset,
    n_total: int,
    backend,
    precision: Optional[str] = None,
) -> Objective:
    """Invoke a loss factory, forwarding ``backend=`` / ``precision=`` when
    the factory accepts them.

    Custom two-argument callables (the documented ``(shard, n_total)``
    signature) keep working; factories that take ``backend`` or ``precision``
    keywords get the cluster's values so their data loads onto the right
    device at the right storage dtype.
    """
    try:
        params = inspect.signature(factory).parameters
        has_var_kw = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        )
        accepts_backend = "backend" in params or has_var_kw
        accepts_precision = "precision" in params or has_var_kw
    except (TypeError, ValueError):  # builtins / C callables
        accepts_backend = False
        accepts_precision = False
    kwargs = {}
    if accepts_backend:
        kwargs["backend"] = backend
    if accepts_precision:
        kwargs["precision"] = precision
    if kwargs:
        return factory(shard, n_total, **kwargs)
    return factory(shard, n_total)


class SimulatedCluster:
    """A deterministic in-process stand-in for the paper's GPU cluster.

    Parameters
    ----------
    train:
        Full training dataset; it is sharded across the workers (``None``
        only for a process-engine replica built from ``shards``).
    n_workers:
        Number of simulated nodes ``N``.
    loss:
        ``"softmax"`` (default), ``"logistic"``, or a callable
        ``(shard, n_total) -> Objective`` building each worker's local loss.
        The convention is that the *sum over workers* of local losses equals
        the global mean loss (factories receive ``n_total`` for this reason).
    network, device:
        Cost models; defaults are the paper's 100 Gb/s InfiniBand and P100.
        ``device`` may also be a sequence of one :class:`DeviceModel` per
        worker to simulate a heterogeneous cluster.
    sharding:
        Row-partitioning strategy (see :mod:`repro.datasets.sharding`).
    straggler:
        Optional :class:`~repro.distributed.stragglers.StragglerModel` that
        multiplies per-worker modelled compute times by sampled slowdowns at
        every synchronization round.
    faults:
        Optional :class:`~repro.distributed.faults.FailureModel` injecting
        worker crashes at set modelled times (and restarts) and network
        partitions into both execution paths.  How a synchronous round
        reacts to a lost or unreachable worker is the executing plan's
        ``on_failure`` policy (``"raise"``/``"stall"``); asynchronous solvers
        always ride through with the survivors/reachable workers.  A model
        whose specs never fire leaves runs bit-identical.
    backend:
        Array backend name or instance every worker's objective and state
        vectors live on (``None`` -> the session default, normally NumPy).
        When ``device`` is omitted the cost model keys off this backend via
        :meth:`~repro.backend.base.ArrayBackend.default_device_model`.
    precision:
        Storage precision of the data (:mod:`repro.backend.precision`):
        ``"mixed"`` (float32 shards, float64 iterates), ``"fp64"`` or
        ``"fp32"``; ``None`` resolves the CLI's ``--precision``, else
        ``"mixed"``.  Each shard is gathered once, straight into the storage
        dtype, and every worker loss and epoch record reads that buffer.
    engine:
        ``"event"`` (default) schedules every worker in-process on the
        discrete-event :class:`~repro.distributed.engine.EventEngine`, which
        records per-worker busy/wait/comm timelines; names are resolved by
        :func:`~repro.distributed.engine.resolve_engine`.  ``"process"`` runs
        every worker as a real OS process (SPMD over a spawn pool — see
        :mod:`repro.distributed.process_engine`): iterates and modelled
        times stay bit-identical to ``"event"``, and measured wall-clock
        timelines are attached to ``trace.info["wall_clock"]``.  The process
        engine requires the NumPy backend and no modelled straggler/fault
        models (real processes fail for real — kill one and the run raises a
        structured :class:`~repro.distributed.faults.WorkerLostError`).
    shards:
        Internal (process engine): pre-computed shards for a rank-local
        replica, skipping :func:`~repro.datasets.sharding.shard_indices` so
        children reuse the parent's shared-memory shards zero-copy.  An
        ``int`` entry is the row count of a shard another rank holds: that
        worker carries its size, not its data (:meth:`Worker.elsewhere`).
        ``train`` may then be ``None``; ``n_total`` is always the sum of the
        shard sizes.
    """

    def __init__(
        self,
        train: Optional[ClassificationDataset],
        n_workers: int,
        *,
        loss: LossFactory | str = "softmax",
        network: Optional[NetworkModel] = None,
        device: Union[DeviceModel, Sequence[DeviceModel], None] = None,
        sharding: str = "stratified",
        straggler: Optional[StragglerModel] = None,
        faults: Optional[FailureModel] = None,
        backend: BackendLike = None,
        precision: Optional[str] = None,
        engine: str = "event",
        random_state=None,
        shards: Optional[Sequence[Union[ClassificationDataset, int]]] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        engine = resolve_engine(engine)
        self.train = train
        self.n_workers = int(n_workers)
        self.backend: ArrayBackend = get_backend(backend)
        self.precision = resolve_precision(precision) or "mixed"
        if engine == "process":
            # Real parallelism does not compose with the modelled perturbation
            # models (stragglers/faults live in simulated time), and the
            # shared-memory shard handoff is NumPy-only.
            if self.backend.name != "numpy":
                raise ValueError(
                    "engine='process' requires the numpy backend (shared-"
                    f"memory shard handoff), got backend {self.backend.name!r}"
                )
            if straggler is not None:
                raise ValueError(
                    "engine='process' measures real time; modelled straggler "
                    "injection needs engine='event'"
                )
            if faults is not None:
                raise ValueError(
                    "engine='process' surfaces real process failures; "
                    "modelled FailureModel injection needs engine='event' "
                    "(kill a worker process to exercise the chaos path)"
                )
        self.network = network or infiniband_100g()
        if device is None:
            # Cost accounting keys off where the arrays actually live.
            devices: List[DeviceModel] = [
                self.backend.default_device_model()
            ] * self.n_workers
        elif isinstance(device, DeviceModel):
            devices = [device] * self.n_workers
        else:
            devices = list(device)
            if len(devices) != self.n_workers:
                raise ValueError(
                    f"got {len(devices)} device models for {self.n_workers} workers"
                )
        self.device = devices[0]
        self.devices = devices
        self.straggler = straggler
        self.faults = faults
        self.fault_state = faults.start(self.n_workers) if faults is not None else None
        # Per-plan fault policy; execute_plan swaps it via fault_policy().
        self._fault_policy = "raise"
        # Provenance: record how the rows were partitioned ("explicit" when
        # pre-built shards were handed in and no strategy ran).
        self.sharding = sharding if shards is None else "explicit"
        self.random_state = random_state
        self.clock = SimulatedClock()
        self.wall = Stopwatch()
        #: ``"event"`` or ``"process"``; every rank of the process engine
        #: keeps the event engine's modelled accounting too
        self.engine_mode = engine
        self.engine = EventEngine(self.n_workers, clock=self.clock)
        self.comm = Communicator(
            self.n_workers, self.network, self.engine, fault_state=self.fault_state
        )
        #: process-engine plumbing (see repro.distributed.process_engine):
        #: the rank role attached while an SPMD fit is live, the lazily
        #: created parent runtime, and per-worker FLOP totals allgathered
        #: from the ranks (each rank only runs its own worker's compute).
        self._process_role = None
        self._process_runtime = None
        self._process_flops = None

        if isinstance(loss, str):
            if loss not in LOSS_FACTORIES:
                raise ValueError(
                    f"unknown loss {loss!r}; expected one of {sorted(LOSS_FACTORIES)} "
                    "or a callable"
                )
            loss_factory = LOSS_FACTORIES[loss]
        else:
            loss_factory = loss
        self._loss_factory = loss_factory
        self._loss_name = loss if isinstance(loss, str) else getattr(loss, "__name__", "custom")

        if shards is None:
            parts = shard_indices(
                train, self.n_workers, strategy=sharding, random_state=random_state
            )
            dtype = storage_dtype(self.precision)
            shards = [
                gather_shard(train, idx, dtype, name=f"{train.name}[shard {i}]")
                for i, idx in enumerate(parts)
            ]
        elif len(shards) != self.n_workers:
            raise ValueError(
                f"got {len(shards)} pre-computed shards for {self.n_workers} workers"
            )
        sizes = [s if isinstance(s, int) else s.n_samples for s in shards]
        #: total number of training samples across all shards
        self.n_total = sum(sizes)
        held = {
            i: Worker(
                i,
                shard,
                CountingObjective(self.shard_loss(shard)),
                self.devices[i],
                backend=self.backend,
            )
            for i, shard in enumerate(shards)
            if not isinstance(shard, int)
        }
        dims = {w.dim for w in held.values()}
        if len(dims) != 1:
            raise ValueError(f"workers disagree on problem dimension: {dims}")
        self.dim = dims.pop()
        self.workers: List[Worker] = [
            held[i]
            if i in held
            else Worker.elsewhere(
                i, sizes[i], self.dim, self.devices[i], backend=self.backend
            )
            for i in range(self.n_workers)
        ]
        # A replica without the training set names and counts by its shard.
        source = train if train is not None else held[min(held)].shard
        self.n_classes = source.n_classes
        self.dataset_name = source.name

    # -- basic properties ---------------------------------------------------
    @property
    def process_runtime(self):
        """The parent-side process-engine runtime (``None`` off the process
        engine, and ``None`` inside spawned worker replicas)."""
        if self.engine_mode != "process" or self._process_runtime is False:
            return None
        if self._process_runtime is None:
            from repro.distributed.process_engine import (
                ProcessRuntime,
                in_worker_process,
            )

            if in_worker_process():
                self._process_runtime = False
                return None
            self._process_runtime = ProcessRuntime(self)
        return self._process_runtime

    def close(self) -> None:
        """Stop spawned worker processes and release shared memory (process
        engine; a no-op on the event engine)."""
        runtime = self._process_runtime
        if runtime not in (None, False):
            runtime.shutdown()

    def _loss_factory_spec(self):
        """What the process engine ships to children to rebuild the loss."""
        return (
            self._loss_name
            if self._loss_name in LOSS_FACTORIES
            else self._loss_factory
        )

    def worker_sizes(self) -> List[int]:
        return [w.n_local_samples for w in self.workers]

    def local_workers(self) -> List[Worker]:
        """The workers whose shards this process computes on: every worker on
        the event engine, the rank's own during a process-engine fit."""
        role = self._process_role
        if role is not None and role.active:
            return [self.workers[role.rank]]
        return list(self.workers)

    def map_shards(self, fn: Callable[[Worker], object]) -> List[object]:
        """``fn(worker)`` for every worker, in rank order, outside the modelled
        accounting.

        Unlike :meth:`map_workers` this advances no clock, charges no FLOPs
        and logs no collective: it is for evaluation (the epoch record) and
        one-off set-up, not for a schedule's local rounds.  On the process
        engine each rank evaluates its own worker and one transport exchange
        hands every rank the others' results.
        """
        role = self._process_role
        if role is not None and role.active:
            return role.transport.allgather(
                fn(self.workers[role.rank]), label="map_shards"
            )
        return [fn(w) for w in self.workers]

    # -- execution -------------------------------------------------------
    def map_workers(self, fn: Callable[[Worker], object]) -> List[object]:
        """Run ``fn(worker)`` on every worker and advance the modelled clock.

        The modelled compute time charged is the *maximum* over workers of the
        FLOPs each one consumed during ``fn`` (they run in parallel on the
        modelled cluster), which is what the paper's epoch times measure.
        """
        targets = self.workers
        for w in targets:
            w.mark_flops()

        role = self._process_role
        if role is not None and role.active:
            # SPMD process mode: compute this rank's worker only, allgather
            # (result, modelled time, flops) triples over the real transport,
            # and drive the same event-engine accounting as every other rank.
            return role.map_workers(self, fn)

        results = [fn(w) for w in targets]
        times = [w.modelled_compute_time() for w in targets]
        if self.straggler is not None:
            factors = self.straggler.factors_for(
                [w.worker_id for w in targets], self.n_workers
            )
            times = [t * f for t, f in zip(times, factors)]
        if self.fault_state is not None:
            self._apply_round_faults(targets, times)
        else:
            self._advance_round_clock(targets, times)
        return results

    def _advance_round_clock(self, targets: Sequence[Worker], times: Sequence[float]) -> None:
        """Charge one fault-free synchronous round."""
        self.engine.run_round(
            {w.worker_id: t for w, t in zip(targets, times)}, category="compute"
        )

    # -- fault handling ----------------------------------------------------
    @contextmanager
    def fault_policy(self, policy: str):
        """Scoped fault policy for synchronous rounds (used by ``execute_plan``).

        ``"raise"`` (default) aborts with :class:`WorkerLostError` when a
        needed worker is down, ``"stall"`` idles the cluster until the worker
        restarts.
        """
        if policy not in FAULT_POLICIES:
            raise ValueError(
                f"fault policy must be one of {FAULT_POLICIES}, got {policy!r}"
            )
        previous = self._fault_policy
        self._fault_policy = policy
        try:
            yield self
        finally:
            self._fault_policy = previous

    def stall_for_restart(self, down_ids: Sequence[int], *, label: str = "stall") -> float:
        """Idle the whole cluster until the earliest restart among ``down_ids``.

        Raises :class:`WorkerLostError` when none of them ever restarts (the
        ``"stall"`` policy cannot make progress).  Modelled time is charged
        to the ``"stall"`` clock category.
        """
        fs = self.fault_state
        now = self.clock.time
        restarts = {int(w): fs.restart_time(int(w), now) for w in down_ids}
        finite = [r for r in restarts.values() if math.isfinite(r)]
        if not finite:
            wid = min(restarts)
            raise WorkerLostError(
                wid,
                now,
                round=fs.round,
                reason="crashed with no scheduled restart; 'stall' cannot complete",
            )
        target = min(finite)
        for wid in range(self.n_workers):
            # Crashed workers' timelines stay frozen; their downtime is
            # drawn when they rejoin (catch_up_timeline).
            if wid not in restarts and not fs.is_down(wid, now):
                self.engine.wait_until(wid, target, label)
        if target > now:
            self.clock.advance(target - now, category="stall")
        for wid, r in restarts.items():
            if r <= target:
                fs.note_restart(wid, r)
                # Draw the downtime before anything barriers the frozen
                # timeline forward (which would render it as a wait).
                fs.catch_up_timeline(self.engine, wid, target)
        return self.clock.time

    def stall_for_heal(
        self, cut_ids: Sequence[int], *, label: str = "partition-stall"
    ) -> float:
        """Idle the reachable cluster until the earliest heal among ``cut_ids``.

        The cut workers are alive — their timelines fill with ``unreachable``
        segments rather than freezing — but the synchronization point cannot
        form until the partition closes.  Raises :class:`PartitionError` when
        none of the windows ever heals.  Modelled time is charged to the
        ``"stall"`` clock category.
        """
        fs = self.fault_state
        now = self.clock.time
        heals: Dict[int, float] = {}
        for w in cut_ids:
            wid = int(w)
            fs.note_partition(wid, fs.cut_start(wid, now))
            heals[wid] = fs.heal_time(wid, now)
        finite = [h for h in heals.values() if math.isfinite(h)]
        if not finite:
            wid = min(heals)
            raise PartitionError(
                wid,
                now,
                heals_at=heals[wid],
                round=fs.round,
                reason="partitioned with no scheduled heal; 'stall' cannot complete",
            )
        target = min(finite)
        for wid in range(self.n_workers):
            if fs.is_down(wid, now):
                continue  # crashed timelines stay frozen
            if wid in heals:
                self.engine.mark_unreachable(wid, target, label)
            else:
                self.engine.wait_until(wid, target, label)
        if target > now:
            self.clock.advance(target - now, category="stall")
        for wid, h in heals.items():
            if h <= target:
                fs.note_heal(wid, h)
        return self.clock.time

    def _apply_round_faults(
        self, targets: Sequence[Worker], times: Sequence[float]
    ) -> None:
        """Charge one synchronous round under the active fault policy.

        A round in which no crash fires takes exactly the fault-free path,
        keeping no-fault runs bit-identical.
        """
        fs = self.fault_state
        policy = self._fault_policy
        ids = [w.worker_id for w in targets]
        label = "compute"
        fs.begin_round()

        # ---- workers already down at the round's synchronization point ------
        while True:
            now = self.clock.time
            down = [wid for wid in ids if fs.is_down(wid, now)]
            if not down:
                break
            for wid in down:
                fs.note_crash(wid, fs.crash_time_of(wid, now))
            if policy == "raise":
                raise WorkerLostError(
                    down[0], now, round=fs.round,
                    reason="down at synchronization point (policy 'raise')",
                )
            self.stall_for_restart(down, label=label + "-stall")
        now = self.clock.time
        # Restarted participants rejoin: draw their downtime onto the timeline.
        for wid in ids:
            fs.catch_up_timeline(self.engine, wid, now)

        # ---- mid-round crashes ----------------------------------------------
        crashes: Dict[int, float] = {}
        for wid, t in zip(ids, times):
            c = fs.first_crash_in(wid, now, now + t)
            if c is not None:
                crashes[wid] = c
        if not crashes:
            self._advance_round_clock(targets, times)
            return
        if policy == "raise":
            wid = min(crashes, key=lambda w: (crashes[w], w))
            fs.note_crash(wid, crashes[wid])
            raise WorkerLostError(
                wid, crashes[wid], round=fs.round,
                reason="crashed mid-round (policy 'raise')",
            )

        # "stall": survivors finish on time; a crashed worker redoes its full
        # compute after restarting.
        effective: Dict[int, float] = {}
        restarts: Dict[int, float] = {}
        for wid, t in zip(ids, times):
            if wid in crashes:
                c = crashes[wid]
                fs.note_crash(wid, c)
                r = fs.restart_time(wid, c)
                if not math.isfinite(r):
                    raise WorkerLostError(
                        wid, c, round=fs.round,
                        reason="crashed with no scheduled restart; 'stall' cannot complete",
                    )
                fs.note_restart(wid, r)
                effective[wid] = (r - now) + t
                restarts[wid] = r
            else:
                effective[wid] = t

        total = max(effective.values())
        compute_part = min(total, max(times))
        stall_part = total - compute_part

        for wid, t in zip(ids, times):
            if wid in crashes:
                self.engine.compute(wid, crashes[wid] - now, label)
                self.engine.mark_down(wid, restarts[wid])
                self.engine.compute(wid, t, label + "-redo")
            else:
                self.engine.compute(wid, t, label)
        self.engine.barrier(ids, label=label)
        if compute_part > 0:
            self.clock.advance(compute_part, category="compute")
        if stall_part > 0:
            self.clock.advance(stall_part, category="stall")

    def straggler_factor(self, worker_id: int) -> float:
        """One cycle's slowdown factor for ``worker_id`` (1.0 without a model).

        Asynchronous solvers call this once per scheduled compute cycle; the
        draw is keyed by worker id so persistent stragglers stay the named
        workers, exactly as in the synchronous rounds.
        """
        if self.straggler is None:
            return 1.0
        return float(self.straggler.factors_for([worker_id], self.n_workers)[0])

    # -- objectives -------------------------------------------------------
    def shard_loss(self, shard: ClassificationDataset) -> Objective:
        """A new loss over ``shard`` scaled by ``1 / n_total``: the shard's
        share of the global mean loss, as every worker's objective is; it
        views the shard's rows, stored at the cluster's precision."""
        return _call_loss_factory(
            self._loss_factory, shard, self.n_total, self.backend, self.precision
        )

    def global_loss(self) -> Objective:
        """The global mean loss over the full (unsharded) training set."""
        if self.train is None:
            raise ValueError(
                "this cluster replica holds one shard, not the training set"
            )
        return _call_loss_factory(
            self._loss_factory,
            self.train,
            self.train.n_samples,
            self.backend,
            self.precision,
        )

    def global_objective(self, lam: float) -> RegularizedObjective:
        """Global regularized objective ``mean loss + (lam/2)||w||^2`` over the
        full training set, e.g. for a reference optimum ``x*`` from
        single-node Newton.  Epoch records fold per-shard partials instead
        (:class:`~repro.distributed.solver_base.ShardedLoss`).
        """
        loss = self.global_loss()
        return RegularizedObjective(loss, L2Regularizer(loss.dim, lam))

    # -- bookkeeping -------------------------------------------------------
    def total_flops(self) -> float:
        if self._process_flops is not None:
            # Process mode: each rank only ran its own worker's compute;
            # the allgathered per-round FLOP deltas are the cluster totals.
            return float(self._process_flops.sum())
        return float(sum(w.flops for w in self.workers))

    def reset_accounting(self) -> None:
        """Zero clocks, communication logs and per-worker counters."""
        self._process_flops = None
        self.clock.reset()
        self.wall.reset()
        self.comm.reset_log()
        self.engine.reset()
        if self.straggler is not None:
            self.straggler.reset()
        if self.fault_state is not None:
            self.fault_state.reset()
        for w in self.workers:
            if w.objective is not None:
                w.objective.reset_counters()
            w.mark_flops()
            w.state.clear()

    def describe(self) -> dict:
        return {
            "n_workers": self.n_workers,
            "n_total": self.n_total,
            "n_classes": self.n_classes,
            "dim": self.dim,
            "loss": self._loss_name,
            "network": self.network.name,
            "device": self.device.name,
            "backend": self.backend.name,
            "precision": self.precision,
            "engine": self.engine_mode,
            "sharding": self.sharding,
            "random_state": self.random_state,
            "worker_sizes": self.worker_sizes(),
            "straggler": (
                self.straggler.describe() if self.straggler is not None else None
            ),
            "faults": self.faults.describe() if self.faults is not None else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulatedCluster(n_workers={self.n_workers}, n_total={self.n_total}, "
            f"dim={self.dim}, network={self.network.name}, device={self.device.name})"
        )
