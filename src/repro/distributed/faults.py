"""Fault injection: worker crashes, restarts, network partitions, correlated
failures and checkpointed recovery as first-class engine events.

The straggler model (:mod:`repro.distributed.stragglers`) can only slow a
worker down; this module can *lose* one.  A :class:`FailureModel` attached to
a :class:`~repro.distributed.cluster.SimulatedCluster` describes when workers
crash — deterministically (``crash_at_time``/``crash_at_round``) or
stochastically (seeded exponential ``mtbf``) — and whether they come back
(``restart_after``).  Fault model v2 adds three orthogonal extensions:

* **network partitions** (:class:`PartitionModel`) — lose a *link*, not a
  node: the listed workers are unreachable from the rest of the cluster for a
  time window.  A partitioned worker keeps *computing* (its timeline records
  ``"unreachable"`` segments instead of freezing) but nothing it sends or
  receives crosses the cut until the partition heals; collectives involving
  it stall, degrade to the reachable membership, or raise a structured
  :class:`PartitionError` according to the plan's ``on_failure`` policy;
* **correlated failures** (``groups=[[0, 1], [2, 3]]`` + ``correlation=p``) —
  rack/host blast radius: every seeded crash draws co-crashes with
  probability ``p`` among the crashing worker's group peers, so a single
  failure can take a whole failure domain below the survivable threshold;
* **checkpoint cost models** (:class:`CheckpointModel`) — restarts are not
  free: a restarted worker pays ``restore_cost`` plus the replay of all work
  since its last durable checkpoint before it can rejoin, which the
  ``"stall"`` policy charges as modelled time (iterates stay bit-identical).

At fit time the model is instantiated into a :class:`FaultInjector`, the
runtime state machine both execution paths consult:

* **synchronous plans** — the cluster checks the injector at every
  synchronization point.  A crashed worker's timeline freezes and its
  in-flight round contribution is dropped; what happens next is the plan's
  declared :attr:`~repro.distributed.schedule.RoundPlan.on_failure` policy:
  ``"raise"`` aborts with a structured :class:`WorkerLostError`, ``"stall"``
  idles the cluster until the worker restarts (and re-runs its lost round),
  ``"degrade"`` proceeds with the survivors;
* **asynchronous solvers** — quorum Newton-ADMM and async SGD drop the
  crashed worker's in-flight push events, reweight their aggregation over the
  survivors, and fold restarted workers back in when they return.

Every crash/restart/partition/heal/co-crash/restore that takes effect is
recorded as an event (exported to ``RunTrace.info["faults"]`` and rendered by
:func:`~repro.harness.plotting.plot_gantt` as ``X``/``^``/``(``/``)``/``+``
markers); a model whose specs never trigger leaves modelled times and
iterates bit-identical to a run without one.

Examples
--------
>>> model = FailureModel(crash_at_time={0: 2.5}, restart_after=1.0)
>>> injector = model.start(n_workers=2)
>>> injector.is_down(0, 3.0), injector.is_down(0, 3.6), injector.is_down(1, 3.0)
(True, False, False)
>>> FailureModel.from_spec("w0@2.5,restart=1.0") == model
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.distributed.injection import injection_worker_rngs

#: fault-handling policies a synchronous plan may declare (see ``RoundPlan``)
FAULT_POLICIES = ("raise", "stall", "degrade")

_INF = float("inf")


class WorkerLostError(RuntimeError):
    """A worker a schedule depends on crashed and will not return in time.

    Structured: ``worker_id``, modelled ``time`` of the loss, and the
    synchronization ``round`` (when known) are attributes, so experiment
    drivers can report *which* worker died *when* rather than just that a run
    failed.
    """

    def __init__(
        self,
        worker_id: int,
        time: float,
        *,
        round: Optional[int] = None,
        reason: str = "crashed",
    ):
        self.worker_id = int(worker_id)
        self.time = float(time)
        self.round = round
        message = f"worker {self.worker_id} lost at modelled t={self.time:.6g}s"
        if round is not None:
            message += f" (sync round {round})"
        message += f": {reason}"
        super().__init__(message)


class PartitionError(WorkerLostError):
    """A worker a schedule depends on is unreachable behind a network cut.

    Structured like :class:`WorkerLostError` (so strict-sync abort handling
    catches both) with the additional ``heals_at`` attribute: the modelled
    time at which the partition window closes (``inf`` = never).
    """

    def __init__(
        self,
        worker_id: int,
        time: float,
        *,
        heals_at: Optional[float] = None,
        round: Optional[int] = None,
        reason: str = "network partition",
    ):
        self.heals_at = float(heals_at) if heals_at is not None else _INF
        if math.isfinite(self.heals_at):
            reason = f"{reason} (heals at t={self.heals_at:.6g}s)"
        super().__init__(worker_id, time, round=round, reason=reason)


@dataclass(frozen=True)
class PartitionModel:
    """Link loss: time windows during which a set of workers is unreachable.

    Each cut is ``(workers, start, end)``: during ``[start, end)`` the listed
    workers cannot exchange messages with the master or with any worker
    outside the set (a single worker models a master↔worker link loss, a
    larger set models a rack isolated from the rest of the cluster).  Compute
    is unaffected — only communication crossing the cut is.  ``end`` may be
    ``inf`` for a partition that never heals.

    Examples
    --------
    >>> cuts = PartitionModel(cuts=[((0,), 2.0, 5.0)])
    >>> cuts.is_cut(0, 3.0), cuts.is_cut(0, 5.0), cuts.is_cut(1, 3.0)
    (True, False, False)
    >>> cuts.heal_time(0, 3.0)
    5.0
    """

    cuts: Sequence[Tuple[Tuple[int, ...], float, float]] = ()

    def __post_init__(self) -> None:
        normalized = []
        for cut in self.cuts:
            try:
                workers, start, end = cut
            except (TypeError, ValueError):
                raise ValueError(
                    f"each cut must be (workers, start, end), got {cut!r}"
                )
            ids = tuple(sorted({int(w) for w in workers}))
            if not ids:
                raise ValueError("a partition cut needs at least one worker")
            if any(w < 0 for w in ids):
                raise ValueError(f"worker ids must be >= 0, got {ids}")
            start, end = float(start), float(end)
            if start < 0:
                raise ValueError(f"cut start must be >= 0, got {start}")
            if end <= start:
                raise ValueError(
                    f"cut must end after it starts, got [{start}, {end})"
                )
            normalized.append((ids, start, end))
        object.__setattr__(self, "cuts", tuple(normalized))

    @property
    def active(self) -> bool:
        """True when any cut window is declared."""
        return bool(self.cuts)

    def is_cut(self, worker_id: int, t: float) -> bool:
        """Is the worker behind a partition at modelled time ``t``?"""
        wid = int(worker_id)
        return any(wid in ids and s <= t < e for ids, s, e in self.cuts)

    def cut_start(self, worker_id: int, t: float) -> float:
        """Start of the cut window covering ``t`` (requires ``is_cut``)."""
        wid = int(worker_id)
        starts = [s for ids, s, e in self.cuts if wid in ids and s <= t < e]
        if not starts:
            raise ValueError(f"worker {worker_id} is not cut at t={t}")
        return min(starts)

    def heal_time(self, worker_id: int, t: float) -> float:
        """First instant at/after ``t`` when the worker is reachable again.

        Chained/overlapping windows are followed to the first gap; returns
        ``t`` unchanged when the worker is not cut, ``inf`` when a covering
        window never ends.
        """
        wid = int(worker_id)
        r = float(t)
        changed = True
        while changed:
            changed = False
            for ids, s, e in self.cuts:
                if wid in ids and s <= r < e:
                    r = e
                    changed = True
                    if not math.isfinite(r):
                        return r
        return r

    def describe(self) -> dict:
        return {
            "cuts": [
                {"workers": list(ids), "start": s, "end": e}
                for ids, s, e in self.cuts
            ]
        }


@dataclass(frozen=True)
class CheckpointModel:
    """How expensive losing a worker's in-memory state really is.

    Without this model a restarted worker resumes from its last in-memory
    state for free.  With it, checkpoints become durable every ``interval``
    modelled seconds (a checkpoint written at ``k * interval`` is usable once
    its ``write_cost`` has elapsed), and recovery after a crash at time ``c``
    charges ``restore_cost`` plus the replay of everything since the last
    durable checkpoint.  Nothing is charged while no crash fires, so an
    attached-but-idle model leaves runs bit-identical.

    Examples
    --------
    >>> ckpt = CheckpointModel(interval=10.0, write_cost=1.0, restore_cost=2.0)
    >>> ckpt.last_durable(25.0)   # the t=20 checkpoint finished writing at 21
    20.0
    >>> ckpt.recovery_seconds(25.0)   # restore (2) + replay since t=20 (5)
    7.0
    >>> ckpt.last_durable(20.5)   # t=20 checkpoint not durable yet at 20.5
    10.0
    """

    interval: float
    write_cost: float = 0.0
    restore_cost: float = 0.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.write_cost < 0:
            raise ValueError(f"write_cost must be >= 0, got {self.write_cost}")
        if self.restore_cost < 0:
            raise ValueError(
                f"restore_cost must be >= 0, got {self.restore_cost}"
            )
        object.__setattr__(self, "interval", float(self.interval))
        object.__setattr__(self, "write_cost", float(self.write_cost))
        object.__setattr__(self, "restore_cost", float(self.restore_cost))

    def last_durable(self, t: float) -> float:
        """Latest checkpoint boundary durable by time ``t`` (0 = initial state)."""
        if t <= 0 or not math.isfinite(t):
            return 0.0
        # Largest k with k*interval + write_cost <= t (the write must have
        # completed by the crash), never past the most recent boundary.
        k = int(math.floor((t - self.write_cost) / self.interval))
        k = min(k, int(math.floor(t / self.interval)))
        return max(k, 0) * self.interval

    def recovery_seconds(self, crash_time: float) -> float:
        """Restore + replay charged before a worker crashed at ``crash_time``
        can do useful work again."""
        crash_time = max(float(crash_time), 0.0)
        return self.restore_cost + (crash_time - self.last_durable(crash_time))

    def describe(self) -> dict:
        return {
            "interval": self.interval,
            "write_cost": self.write_cost,
            "restore_cost": self.restore_cost,
        }


@dataclass(frozen=True)
class FailureModel:
    """When workers crash, and whether they restart.

    Attributes
    ----------
    crash_at_time:
        ``worker_id -> modelled time`` of a deterministic crash.
    crash_at_round:
        ``worker_id -> 1-based synchronization round`` at whose start the
        worker crashes (rounds are counted per
        :meth:`~repro.distributed.cluster.SimulatedCluster.map_workers` round
        on the synchronous path, and per local cycle for asynchronous
        solvers).
    mtbf:
        Mean time between failures of a seeded exponential crash process, per
        worker (``None`` disables it).  Each worker samples from its own
        independent stream (see :mod:`repro.distributed.injection`), so the
        schedule is deterministic under a fixed ``random_state`` regardless
        of query order.
    restart_after:
        Seconds after a crash at which the worker comes back (``None`` =
        crashed workers never return).
    groups:
        Failure domains (rack/host topology) for correlated failures: each
        group is a set of worker ids that share a blast radius.  Whenever a
        seeded crash fires for a group member, every *other* member of that
        group co-crashes at the same instant with probability
        ``correlation`` (drawn from dedicated per-worker streams, so the
        schedule stays deterministic and query-order independent).
    correlation:
        Co-crash probability within a failure group, in ``[0, 1]``.
    partitions:
        Optional :class:`PartitionModel` cutting links for time windows (a
        plain sequence of ``(workers, start, end)`` cuts is also accepted
        and wrapped).  Partitioned workers keep computing but cannot
        communicate until the window heals.
    checkpoint:
        Optional :class:`CheckpointModel` making restarts pay restore +
        replay-from-last-checkpoint instead of resuming for free.
    random_state:
        Seed of the MTBF and co-crash streams.  The streams are salted, so a
        :class:`~repro.distributed.stragglers.StragglerModel` sharing the
        same seed draws an independent sequence and the two schedules compose
        reproducibly.

    Examples
    --------
    >>> FailureModel(mtbf=10.0, restart_after=2.0, random_state=7).active
    True
    >>> FailureModel().active        # no specs: attaching it changes nothing
    False
    """

    crash_at_time: Mapping[int, float] = field(default_factory=dict)
    crash_at_round: Mapping[int, int] = field(default_factory=dict)
    mtbf: Optional[float] = None
    restart_after: Optional[float] = None
    groups: Sequence[Sequence[int]] = ()
    correlation: float = 0.0
    partitions: Optional[PartitionModel] = None
    checkpoint: Optional[CheckpointModel] = None
    random_state: Optional[int] = 0

    def __post_init__(self) -> None:
        crash_at_time = {
            int(k): float(v) for k, v in dict(self.crash_at_time).items()
        }
        crash_at_round = {
            int(k): int(v) for k, v in dict(self.crash_at_round).items()
        }
        for wid, t in crash_at_time.items():
            if wid < 0:
                raise ValueError(f"worker id must be >= 0, got {wid}")
            if t < 0:
                raise ValueError(f"crash time must be >= 0, got {t}")
        for wid, r in crash_at_round.items():
            if wid < 0:
                raise ValueError(f"worker id must be >= 0, got {wid}")
            if r < 1:
                raise ValueError(f"crash round must be >= 1, got {r}")
        if self.mtbf is not None and self.mtbf <= 0:
            raise ValueError(f"mtbf must be positive, got {self.mtbf}")
        if self.restart_after is not None and self.restart_after <= 0:
            raise ValueError(
                f"restart_after must be positive, got {self.restart_after}"
            )
        groups = []
        for group in self.groups:
            ids = tuple(sorted({int(w) for w in group}))
            if len(ids) < 2:
                raise ValueError(
                    f"a failure group needs at least 2 workers, got {group!r}"
                )
            if any(w < 0 for w in ids):
                raise ValueError(f"worker ids must be >= 0, got {ids}")
            groups.append(ids)
        if not 0.0 <= float(self.correlation) <= 1.0:
            raise ValueError(
                f"correlation must lie in [0, 1], got {self.correlation}"
            )
        partitions = self.partitions
        if partitions is not None and not isinstance(partitions, PartitionModel):
            partitions = PartitionModel(cuts=partitions)
        if self.checkpoint is not None and not isinstance(
            self.checkpoint, CheckpointModel
        ):
            raise TypeError(
                f"checkpoint must be a CheckpointModel, got {self.checkpoint!r}"
            )
        # frozen dataclass: bypass the guard to store normalized copies
        object.__setattr__(self, "crash_at_time", crash_at_time)
        object.__setattr__(self, "crash_at_round", crash_at_round)
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "correlation", float(self.correlation))
        object.__setattr__(self, "partitions", partitions)

    @property
    def active(self) -> bool:
        """True when any crash or partition spec is set (an inactive model is
        a no-op; ``groups``/``correlation``/``checkpoint`` only shape events
        that other specs trigger)."""
        return bool(
            self.crash_at_time
            or self.crash_at_round
            or self.mtbf
            or (self.partitions is not None and self.partitions.active)
        )

    def start(self, n_workers: int) -> "FaultInjector":
        """Instantiate the runtime state machine for one cluster."""
        return FaultInjector(self, n_workers)

    def describe(self) -> dict:
        """JSON-serializable description (recorded in run provenance)."""
        return {
            "crash_at_time": {str(k): v for k, v in self.crash_at_time.items()},
            "crash_at_round": {str(k): v for k, v in self.crash_at_round.items()},
            "mtbf": self.mtbf,
            "restart_after": self.restart_after,
            "groups": [list(g) for g in self.groups],
            "correlation": self.correlation,
            "partitions": (
                self.partitions.describe() if self.partitions is not None else None
            ),
            "checkpoint": (
                self.checkpoint.describe() if self.checkpoint is not None else None
            ),
            "random_state": self.random_state,
        }

    @classmethod
    def from_spec(cls, spec: str) -> "FailureModel":
        """Parse the CLI's ``--faults`` spec string.

        Comma-separated tokens:

        * ``W@T`` (or ``wW@T``) — worker ``W`` crashes at modelled time ``T``;
        * ``W@rK`` — worker ``W`` crashes at the start of sync round ``K``;
        * ``mtbf=S`` — seeded exponential crashes with mean ``S`` seconds;
        * ``restart=S`` — crashed workers return after ``S`` seconds;
        * ``part=W[+W2...]@S-E`` — the listed workers are partitioned from
          the rest of the cluster during ``[S, E)`` (``E`` may be ``inf``);
          repeatable;
        * ``group=W+W2[+...]`` — a correlated failure group; repeatable;
        * ``corr=P`` — co-crash probability within a group (default 0);
        * ``ckpt=I[/W[/R]]`` — checkpoint every ``I`` seconds with write cost
          ``W`` and restore cost ``R`` (both default 0);
        * ``seed=N`` — seed of the MTBF and co-crash streams.

        A worker may carry at most one crash schedule: duplicate ``W@...``
        tokens (and duplicate scalar keys) raise a :class:`ValueError` naming
        the offending token instead of silently letting the last one win.

        Examples
        --------
        >>> FailureModel.from_spec("0@2.5,w1@r3,restart=1.0").crash_at_round
        {1: 3}
        >>> FailureModel.from_spec("part=0@2.0-5.0").partitions.cuts
        (((0,), 2.0, 5.0),)
        """

        def bad(token: str, expected: str) -> ValueError:
            return ValueError(
                f"cannot parse fault-spec token {token!r} in {spec!r}; "
                f"expected {expected}"
            )

        def parse_float(value: str, token: str, what: str) -> float:
            try:
                return float(value)
            except ValueError:
                raise bad(token, f"{what} to be a number")

        def parse_int(value: str, token: str, what: str) -> int:
            try:
                return int(value)
            except ValueError:
                raise bad(token, f"{what} to be an integer")

        def parse_ids(value: str, token: str) -> List[int]:
            parts = [p.strip() for p in value.split("+")]
            if not parts or any(not p for p in parts):
                raise bad(token, "worker ids joined by '+', e.g. 0+1")
            return [
                parse_int(p.lstrip("wW") or p, token, "a worker id")  # noqa: B005
                for p in parts
            ]

        crash_at_time: Dict[int, float] = {}
        crash_at_round: Dict[int, int] = {}
        mtbf: Optional[float] = None
        restart_after: Optional[float] = None
        groups: List[List[int]] = []
        correlation = 0.0
        cuts: List[Tuple[Tuple[int, ...], float, float]] = []
        checkpoint: Optional[CheckpointModel] = None
        random_state: Optional[int] = 0
        seen_keys: set = set()
        for token in str(spec).split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip().lower()
                value = value.strip()
                if key in ("mtbf", "restart", "seed", "corr", "ckpt"):
                    if key in seen_keys:
                        raise ValueError(
                            f"duplicate fault-spec key {key!r} "
                            f"(token {token!r} in {spec!r})"
                        )
                    seen_keys.add(key)
                if key == "mtbf":
                    mtbf = parse_float(value, token, "mtbf=")
                elif key == "restart":
                    restart_after = parse_float(value, token, "restart=")
                elif key == "seed":
                    random_state = parse_int(value, token, "seed=")
                elif key == "corr":
                    correlation = parse_float(value, token, "corr=")
                    if not 0.0 <= correlation <= 1.0:
                        raise bad(token, "corr= to lie in [0, 1]")
                elif key == "group":
                    ids = parse_ids(value, token)
                    if len(set(ids)) < 2:
                        raise bad(
                            token, "at least two distinct worker ids"
                        )
                    groups.append(ids)
                elif key == "part":
                    ids_part, sep, window = value.partition("@")
                    if not sep:
                        raise bad(token, "part=WORKERS@START-END")
                    # Times may carry negative exponents (1e-3), so the
                    # separating '-' is the one splitting the window into
                    # two parseable numbers, not simply the first dash.
                    bounds = None
                    for i, ch in enumerate(window):
                        if ch != "-":
                            continue
                        try:
                            bounds = (
                                float(window[:i]), float(window[i + 1:])
                            )
                            break
                        except ValueError:
                            continue
                    if bounds is None:
                        raise bad(
                            token,
                            "part=WORKERS@START-END with numeric times",
                        )
                    if bounds[0] < 0 or bounds[1] <= bounds[0]:
                        raise bad(
                            token,
                            "a window with 0 <= START < END",
                        )
                    cuts.append(
                        (tuple(parse_ids(ids_part, token)), *bounds)
                    )
                elif key == "ckpt":
                    parts = [p.strip() for p in value.split("/")]
                    if not 1 <= len(parts) <= 3:
                        raise bad(token, "ckpt=INTERVAL[/WRITE[/RESTORE]]")
                    numbers = [
                        parse_float(p, token, "a checkpoint cost")
                        for p in parts
                    ]
                    try:
                        checkpoint = CheckpointModel(*numbers)
                    except ValueError as exc:
                        raise bad(token, f"a valid checkpoint model ({exc})")
                else:
                    raise ValueError(
                        f"unknown fault-spec key {key!r} in token {token!r} "
                        f"of {spec!r}; expected mtbf=, restart=, seed=, "
                        "corr=, group=, part= or ckpt="
                    )
            elif "@" in token:
                wid_part, _, at = token.partition("@")
                wid_part = wid_part.strip().lstrip("wW")  # noqa: B005
                if not wid_part:
                    raise bad(token, "W@TIME or W@rROUND")
                wid = parse_int(wid_part, token, "a worker id")
                if wid in crash_at_time or wid in crash_at_round:
                    raise ValueError(
                        f"duplicate crash schedule for worker {wid} "
                        f"(token {token!r} in {spec!r}); "
                        "one crash spec per worker"
                    )
                at = at.strip()
                if at.lower().startswith("r"):
                    crash_at_round[wid] = parse_int(
                        at[1:], token, "the round number"
                    )
                else:
                    crash_at_time[wid] = parse_float(at, token, "the crash time")
            else:
                raise ValueError(
                    f"cannot parse fault-spec token {token!r} in {spec!r}; "
                    "expected W@TIME, W@rROUND, mtbf=, restart=, seed=, "
                    "corr=, group=, part= or ckpt="
                )
        return cls(
            crash_at_time=crash_at_time,
            crash_at_round=crash_at_round,
            mtbf=mtbf,
            restart_after=restart_after,
            groups=groups,
            correlation=correlation,
            partitions=PartitionModel(cuts=cuts) if cuts else None,
            checkpoint=checkpoint,
            random_state=random_state,
        )


class FaultInjector:
    """Runtime crash/restart state for one cluster run.

    Owned by the :class:`~repro.distributed.cluster.SimulatedCluster`
    (``cluster.fault_state``) and reset by ``reset_accounting``, so two runs
    on the same cluster see the same fault schedule.  All queries are pure
    reads of the (lazily materialized, per-worker) schedule; the ``note_*``
    methods record events as the simulation acts on them.

    Examples
    --------
    >>> inj = FailureModel(crash_at_time={1: 5.0}).start(4)
    >>> inj.first_crash_in(1, 0.0, 10.0)
    5.0
    >>> inj.first_crash_in(0, 0.0, 10.0) is None
    True
    """

    def __init__(self, model: FailureModel, n_workers: int):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.model = model
        self.n_workers = int(n_workers)
        self.reset()

    def reset(self) -> None:
        """Restart the schedule (same seed => same crashes next run)."""
        n = self.n_workers
        restart = self.model.restart_after
        #: events actually delivered to the simulation, in the order acted on
        self.events: List[Dict[str, float]] = []
        #: synchronization rounds seen so far (drives ``crash_at_round``)
        self.round = 0
        # deterministic intervals: crash_at_time, plus crash_at_round entries
        # appended when their round begins (their clock time is only known
        # then); MTBF intervals live separately and grow lazily per worker.
        self._fixed: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
        self._mtbf: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
        # co-crash intervals drawn by group peers' crashes, kept separate so
        # their events can be tagged as correlated.
        self._correlated: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
        self._co_sources: Dict[Tuple[int, float], int] = {}
        self._round_armed: set = set()
        # workers currently down, with their crash time; cleared on restart.
        self._down_since: Dict[int, float] = {}
        # workers currently behind an acted-on partition, with the window start.
        self._cut_since: Dict[int, float] = {}
        # (worker, crash_time) recovery charges already recorded as events.
        self._restored: set = set()
        # crash/restart pairs not yet drawn onto a timeline (event engine).
        self._timeline_debt: Dict[int, List[float]] = {}
        for wid, t in self.model.crash_at_time.items():
            if wid < n:
                self._fixed[wid].append((t, t + restart if restart else _INF))
        self._mtbf_rngs = (
            injection_worker_rngs(self.model.random_state, n, stream="failures")
            if self.model.mtbf
            else None
        )
        self._group_peers: Dict[int, List[int]] = {}
        correlated = self.model.groups and self.model.correlation > 0.0
        for group in self.model.groups:
            for wid in group:
                if wid < n:
                    self._group_peers.setdefault(wid, [])
        self._corr_rngs = (
            injection_worker_rngs(self.model.random_state, n, stream="correlated")
            if correlated
            else None
        )
        if correlated:
            for group in self.model.groups:
                members = [w for w in group if w < n]
                for wid in members:
                    self._group_peers[wid] = sorted(
                        set(self._group_peers[wid])
                        | {m for m in members if m != wid}
                    )
            # Deterministic crashes are known now: draw their co-crashes
            # immediately (worker order fixes the draw sequence).
            for wid in sorted(self.model.crash_at_time):
                if wid < n:
                    self._arm_co_crashes(wid, self.model.crash_at_time[wid])
        # per-worker cycle counters used by async solvers' crash_at_round
        self._cycles = [0] * n

    # -- schedule materialization -----------------------------------------
    def _arm_co_crashes(self, primary: int, crash_time: float) -> None:
        """Draw correlated co-crashes among ``primary``'s group peers.

        Consumes only ``primary``'s dedicated stream (one draw per peer, in
        sorted order), so the schedule is deterministic however the
        simulation interleaves its queries.
        """
        if self._corr_rngs is None:
            return
        restart = self.model.restart_after
        for peer in self._group_peers.get(primary, ()):
            if float(self._corr_rngs[primary].random()) < self.model.correlation:
                self._correlated[peer].append(
                    (crash_time, crash_time + restart if restart else _INF)
                )
                self._co_sources.setdefault((peer, crash_time), primary)

    def _ensure_mtbf(self, worker_id: int, until: float) -> None:
        if self._mtbf_rngs is None or not math.isfinite(until):
            return
        intervals = self._mtbf[worker_id]
        restart = self.model.restart_after
        while not intervals or (
            math.isfinite(intervals[-1][1]) and intervals[-1][1] <= until
        ):
            base = intervals[-1][1] if intervals else 0.0
            gap = float(self._mtbf_rngs[worker_id].exponential(self.model.mtbf))
            crash = base + gap
            intervals.append((crash, crash + restart if restart else _INF))
            self._arm_co_crashes(worker_id, crash)

    def _intervals(self, worker_id: int, until: float):
        self._ensure_mtbf(worker_id, until)
        # A group peer's lazily-sampled crash may co-crash this worker:
        # materialize the peers' schedules over the same horizon first.
        for peer in self._group_peers.get(worker_id, ()):
            self._ensure_mtbf(peer, until)
        yield from self._fixed[worker_id]
        yield from self._mtbf[worker_id]
        yield from self._correlated[worker_id]

    # -- queries ------------------------------------------------------------
    def is_down(self, worker_id: int, t: float) -> bool:
        """Is the worker inside a crash interval at modelled time ``t``?"""
        return any(c <= t < r for c, r in self._intervals(worker_id, t))

    def crash_time_of(self, worker_id: int, t: float) -> float:
        """Start of the crash interval containing ``t`` (requires ``is_down``)."""
        times = [c for c, r in self._intervals(worker_id, t) if c <= t < r]
        if not times:
            raise ValueError(f"worker {worker_id} is not down at t={t}")
        return min(times)

    def first_crash_in(
        self, worker_id: int, start: float, end: float
    ) -> Optional[float]:
        """Earliest crash in ``[start, end)``, or ``None``."""
        times = [
            c for c, _ in self._intervals(worker_id, end) if start <= c < end
        ]
        return min(times) if times else None

    def restart_time(self, worker_id: int, t: float) -> float:
        """When a worker down at ``t`` is back up (``inf`` = never).

        Chained/overlapping crash intervals are followed to the first instant
        at which no interval covers the worker.
        """
        r = float(t)
        changed = True
        while changed:
            changed = False
            for c, rr in self._intervals(worker_id, r if math.isfinite(r) else t):
                if c <= r < rr:
                    r = rr
                    changed = True
                    if not math.isfinite(r):
                        return r
        return r if r > t else _INF

    @property
    def any_down(self) -> bool:
        return bool(self._down_since)

    def down_workers(self) -> List[int]:
        """Workers whose crash the simulation has acted on and not yet revived."""
        return sorted(self._down_since)

    # -- partitions ----------------------------------------------------------
    @property
    def has_partitions(self) -> bool:
        """True when the model declares any partition window."""
        p = self.model.partitions
        return p is not None and p.active

    def is_cut(self, worker_id: int, t: float) -> bool:
        """Is the worker unreachable behind a partition at time ``t``?"""
        p = self.model.partitions
        return p is not None and p.is_cut(int(worker_id), t)

    def cut_start(self, worker_id: int, t: float) -> float:
        """Start of the cut window covering ``t`` (requires ``is_cut``)."""
        return self.model.partitions.cut_start(int(worker_id), t)

    def heal_time(self, worker_id: int, t: float) -> float:
        """First instant at/after ``t`` when the worker is reachable
        (``t`` itself when it is not cut, ``inf`` when the cut never heals)."""
        p = self.model.partitions
        return p.heal_time(int(worker_id), t) if p is not None else float(t)

    def cut_workers(self, worker_ids: Sequence[int], t: float) -> List[int]:
        """The subset of ``worker_ids`` unreachable at time ``t``."""
        if not self.has_partitions:
            return []
        return [int(w) for w in worker_ids if self.is_cut(w, t)]

    # -- checkpoints ---------------------------------------------------------
    def recovery_seconds(self, worker_id: int, crash_time: float) -> float:
        """Restore + replay a worker crashed at ``crash_time`` must pay after
        its restart before doing useful work (0 without a checkpoint model)."""
        ckpt = self.model.checkpoint
        if ckpt is None:
            return 0.0
        return ckpt.recovery_seconds(crash_time)

    # -- round / cycle lifecycle -------------------------------------------
    def begin_round(self, worker_ids: Sequence[int], now: float) -> int:
        """Count one synchronization round and arm ``crash_at_round`` specs.

        A worker whose declared round begins now gets a crash interval
        starting at the round's synchronization time.  Arming triggers at the
        worker's first participating round *at or after* the configured one,
        so a spec is not silently dropped when the worker happened to sit out
        (subset round, degraded membership) the exact round number.
        """
        self.round += 1
        restart = self.model.restart_after
        for wid in worker_ids:
            wid = int(wid)
            if wid in self._round_armed or wid >= self.n_workers:
                continue
            target = self.model.crash_at_round.get(wid)
            if target is not None and self.round >= target:
                self._round_armed.add(wid)
                self._fixed[wid].append(
                    (now, now + restart if restart else _INF)
                )
                self._arm_co_crashes(wid, now)
        return self.round

    def begin_cycle(self, worker_id: int, now: float) -> None:
        """Asynchronous analogue of :meth:`begin_round`: count one local
        cycle of ``worker_id`` and arm its ``crash_at_round`` spec (round
        ``k`` = the worker's k-th cycle)."""
        wid = int(worker_id)
        self._cycles[wid] += 1
        if wid in self._round_armed:
            return
        target = self.model.crash_at_round.get(wid)
        if target is not None and self._cycles[wid] >= target:
            self._round_armed.add(wid)
            restart = self.model.restart_after
            self._fixed[wid].append((now, now + restart if restart else _INF))
            self._arm_co_crashes(wid, now)

    # -- event recording ------------------------------------------------------
    def note_crash(self, worker_id: int, time: float) -> None:
        """Record that the simulation acted on a crash (idempotent while down).

        Crashes drawn by a group peer's failure are recorded as ``co-crash``
        events carrying the peer that dragged them down.
        """
        wid = int(worker_id)
        if wid in self._down_since:
            return
        self._down_since[wid] = float(time)
        self._timeline_debt[wid] = [float(time)]
        primary = self._co_sources.get((wid, float(time)))
        event = {
            "kind": "crash" if primary is None else "co-crash",
            "worker_id": wid,
            "time": float(time),
            "round": self.round,
        }
        if primary is not None:
            event["with"] = int(primary)
        self.events.append(event)

    def note_partition(self, worker_id: int, start: float) -> None:
        """Record that the simulation acted on a cut (idempotent per window)."""
        wid = int(worker_id)
        if wid in self._cut_since:
            return
        self._cut_since[wid] = float(start)
        self.events.append(
            {"kind": "partition", "worker_id": wid, "time": float(start),
             "round": self.round}
        )

    def note_heal(self, worker_id: int, time: float) -> None:
        """Record that a cut worker became reachable (idempotent while up)."""
        wid = int(worker_id)
        if wid not in self._cut_since:
            return
        del self._cut_since[wid]
        self.events.append(
            {"kind": "heal", "worker_id": wid, "time": float(time),
             "round": self.round}
        )

    def note_restore(
        self, worker_id: int, crash_time: float, ready: float, seconds: float
    ) -> None:
        """Record a checkpoint recovery charge (idempotent per crash)."""
        wid = int(worker_id)
        key = (wid, float(crash_time))
        if seconds <= 0 or key in self._restored:
            return
        self._restored.add(key)
        self.events.append(
            {"kind": "restore", "worker_id": wid, "time": float(ready),
             "seconds": float(seconds), "round": self.round}
        )

    def rejoin_if_restarted(self, worker_id: int, now: float) -> bool:
        """Record the restart of a worker whose downtime has already passed.

        Degraded rounds simply drop a crashed worker; when it comes back it
        rejoins silently at the next synchronization point — this notes the
        restart event at its scheduled time so provenance and Gantt markers
        stay complete.
        """
        wid = int(worker_id)
        if wid in self._down_since and not self.is_down(wid, now):
            self.note_restart(
                wid, self.restart_time(wid, self._down_since[wid])
            )
            return True
        return False

    def note_restart(self, worker_id: int, time: float) -> None:
        """Record that a down worker came back (idempotent while up)."""
        wid = int(worker_id)
        if wid not in self._down_since:
            return
        del self._down_since[wid]
        self._timeline_debt.setdefault(wid, []).append(float(time))
        self.events.append(
            {"kind": "restart", "worker_id": wid, "time": float(time),
             "round": self.round}
        )

    # -- timeline bookkeeping (event engine) ---------------------------------
    def catch_up_timeline(self, engine, worker_id: int, now: float) -> None:
        """Draw a restarted worker's downtime onto its timeline and rejoin it.

        The worker's clock froze at the crash; this advances it with a
        ``down`` segment to the recorded restart, a ``busy`` ``restore``
        segment when a :class:`CheckpointModel` charges recovery, then a
        ``wait`` to ``now`` (it restarted mid-someone-else's round and waits
        for the next synchronization point).
        """
        wid = int(worker_id)
        debt = self._timeline_debt.pop(wid, None)
        if not debt or len(debt) < 2:
            if debt:  # crash recorded but no restart yet: keep the debt
                self._timeline_debt[wid] = debt
            return
        crash, restart = debt[0], debt[1]
        tl = engine.timeline(wid)
        if restart > tl.t:
            tl.advance(restart - tl.t, "down", "down")
        recovery = self.recovery_seconds(wid, crash)
        if recovery > 0:
            tl.advance(recovery, "busy", "restore")
            self.note_restore(wid, crash, restart + recovery, recovery)
        tl.wait_until(now, "restart")

    def rejoin_healed(self, now: float, engine) -> List[int]:
        """Rejoin every worker whose partition window has closed by ``now``.

        Degraded rounds simply drop a cut worker; when the partition heals it
        rejoins silently at the next synchronization point — this records the
        heal event and draws the ``unreachable`` window onto the worker's
        ``engine`` timeline, so provenance and Gantt markers stay complete.
        Returns the rejoined worker ids.
        """
        healed: List[int] = []
        for wid in sorted(self._cut_since):
            # Judge the *recorded* window, not the worker's current state: a
            # later, disjoint cut may already cover ``now``, and the heal of
            # the first window must still be recorded (the caller then notes
            # the new window as its own partition event).
            heal = self.heal_time(wid, self._cut_since[wid])
            if heal > now:
                continue
            tl = engine.timeline(wid)
            if heal > tl.t:
                tl.advance(heal - tl.t, "unreachable", "partition")
            self.note_heal(wid, heal)
            healed.append(wid)
        return healed

    def hold_until_reachable(self, engine, worker_id: int) -> Optional[float]:
        """Advance a worker's local clock past any partition covering it.

        Used by the asynchronous solvers before every point-to-point
        transfer: the worker keeps its computed state but its message cannot
        cross the cut, so its timeline fills with ``unreachable`` segments
        until the window heals.  Raises :class:`PartitionError` when the cut
        never heals.

        The hold stretches the cycle past the window the caller's crash
        guard inspected, so the crash schedule is re-checked here: a worker
        that dies *while held behind the cut* never delivers — its timeline
        freezes at the crash and its restart time is returned (``inf`` =
        never) so the caller drops the transfer and schedules the revival.
        Returns ``None`` when the worker comes out of the hold alive.
        """
        wid = int(worker_id)
        tl = engine.timeline(wid)
        while self.is_cut(wid, tl.t):
            start = self.cut_start(wid, tl.t)
            heal = self.heal_time(wid, tl.t)
            self.note_partition(wid, start)
            if not math.isfinite(heal):
                raise PartitionError(
                    wid, tl.t, heals_at=heal, round=self.round,
                    reason="partition never heals",
                )
            crash = self.first_crash_in(wid, tl.t, heal)
            if crash is not None:
                if crash > tl.t:
                    tl.advance(crash - tl.t, "unreachable", "partition")
                self.note_crash(wid, crash)
                return self.restart_time(wid, crash)
            tl.advance(heal - tl.t, "unreachable", "partition")
            self.note_heal(wid, heal)
        return None

    def close_open_downtime(self, engine, until: float) -> None:
        """Extend still-down workers' timelines with a ``down`` segment (and
        still-cut workers' with an ``unreachable`` segment) to the end of the
        run so permanently lost workers render in the Gantt chart.  ``until``
        is the final global clock; the downtime extends to the latest worker
        clock when that runs ahead (asynchronous runs)."""
        horizon = max(
            [float(until)] + [tl.t for tl in engine.timelines]
        )
        for wid, debt in list(self._timeline_debt.items()):
            tl = engine.timeline(wid)
            end = debt[1] if len(debt) > 1 else horizon
            if end > tl.t:
                tl.advance(end - tl.t, "down", "down")
        for wid, start in list(self._cut_since.items()):
            tl = engine.timeline(wid)
            end = min(self.heal_time(wid, start), horizon)
            if end > tl.t:
                tl.advance(end - tl.t, "unreachable", "partition")

    def describe(self) -> dict:
        return {
            "model": self.model.describe(),
            "rounds_seen": self.round,
            "events": [dict(e) for e in self.events],
        }


def crashed_at_start(injector: FaultInjector, worker_id: int, start: float):
    """Cycle-start crash check for asynchronous solvers.

    Returns the worker's restart time (``inf`` = never) when it is already
    down at ``start`` — recording the crash — or ``None`` when it is up.
    """
    if not injector.is_down(worker_id, start):
        return None
    injector.note_crash(worker_id, injector.crash_time_of(worker_id, start))
    return injector.restart_time(worker_id, start)


def crash_guard(
    injector: FaultInjector,
    engine,
    worker_id: int,
    start: float,
    busy_seconds: float,
    comm_seconds: float,
    *,
    busy_label: str,
    comm_label: str,
):
    """Apply the fault schedule to one asynchronous work cycle.

    The cycle is ``busy_seconds`` of compute followed by ``comm_seconds`` of
    push starting at ``start`` on ``worker_id``'s timeline.  Returns ``None``
    when the cycle completes; otherwise the worker crashed mid-cycle: the
    crash is recorded, the partial busy/comm segments up to the crash are
    drawn (the timeline then freezes, and the caller must NOT post the
    arrival — the in-flight contribution is dropped), and the worker's
    restart time (``inf`` = never) is returned.

    Shared by :class:`~repro.admm.async_newton_admm.AsyncNewtonADMM` and
    :class:`~repro.baselines.async_sgd.AsynchronousSGD` so the subtle
    crash-window accounting cannot drift between them.
    """
    crash = injector.first_crash_in(
        worker_id, start, start + busy_seconds + comm_seconds
    )
    if crash is None:
        return None
    injector.note_crash(worker_id, crash)
    busy = min(busy_seconds, crash - start)
    if busy > 0:
        engine.compute(worker_id, busy, label=busy_label)
    comm = min(comm_seconds, max(crash - start - busy_seconds, 0.0))
    if comm > 0:
        engine.communicate(worker_id, comm, label=comm_label)
    return injector.restart_time(worker_id, crash)


def partition_transfer_guard(
    injector: FaultInjector,
    engine,
    worker_id: int,
    comm_seconds: float,
    *,
    comm_label: str,
):
    """Partition-aware point-to-point transfer for the asynchronous solvers.

    Holds ``worker_id`` behind any open cut (``unreachable`` timeline
    segments, partition/heal events), then re-checks the crash schedule over
    the *delayed* transfer window — the caller's :func:`crash_guard`
    inspected the undelayed cycle, so a worker that dies while held, or
    mid-push after the heal, must still drop its payload.  On survival the
    transfer is drawn on the timeline and ``None`` is returned; otherwise
    the loss is recorded (partial transfer drawn up to the crash) and the
    worker's restart time is returned (``inf`` = never-healing cut or no
    scheduled restart) — the caller must NOT post the arrival and should
    schedule the revival.

    Shared by :class:`~repro.admm.async_newton_admm.AsyncNewtonADMM` and
    :class:`~repro.baselines.async_sgd.AsynchronousSGD` (both the push and
    the pull side) so the delayed-transfer policy cannot drift between the
    four call sites.
    """
    wid = int(worker_id)
    try:
        restart = injector.hold_until_reachable(engine, wid)
    except PartitionError:
        return _INF
    if restart is not None:
        return restart
    start = engine.timeline(wid).t
    crash = injector.first_crash_in(wid, start, start + comm_seconds)
    if crash is not None:
        injector.note_crash(wid, crash)
        if crash > start:
            engine.communicate(wid, crash - start, label=comm_label)
        return injector.restart_time(wid, crash)
    engine.communicate(wid, comm_seconds, label=comm_label)
    return None


def pop_next_arrival(engine, dead: Dict[int, float], revive, *, now=None):
    """Pop the earliest event, reviving restartable dead workers first.

    Shared by the asynchronous solvers.  ``dead`` maps crashed worker ids to
    their restart times (``inf`` = never); ``revive(worker_id, restart_time)``
    must restart the worker's cycle (which may post new, possibly earlier,
    events) and remove it from ``dead``.  Raises :class:`WorkerLostError`
    when every worker is lost with no restart scheduled.
    """
    while True:
        restartable = sorted(
            (r, w) for w, r in dead.items() if math.isfinite(r)
        )
        if engine.n_pending == 0:
            if not restartable:
                wid = min(dead) if dead else 0
                raise WorkerLostError(
                    wid,
                    engine.now if now is None else now,
                    reason="no surviving workers and no scheduled restarts",
                )
            r, wid = restartable[0]
            revive(wid, r)
            continue
        if restartable and restartable[0][0] <= engine.peek_time():
            r, wid = restartable[0]
            revive(wid, r)
            continue
        return engine.pop()
