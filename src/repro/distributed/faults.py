"""Fault injection: worker crashes, restarts and network partitions as
first-class engine events.

The straggler model (:mod:`repro.distributed.stragglers`) can only slow a
worker down; this module can *lose* one.  A :class:`FailureModel` attached to
a :class:`~repro.distributed.cluster.SimulatedCluster` describes which
workers crash at which modelled time (``crash_at_time``), whether they come
back (``restart_after``), and which links are cut for a time window
(:class:`PartitionModel`): a partitioned worker keeps *computing* (its
timeline records ``"unreachable"`` segments instead of freezing) but nothing
it sends or receives crosses the cut until the partition heals.

At fit time the model is instantiated into a :class:`FaultInjector`, the
runtime state machine both execution paths consult:

* **synchronous plans** — the cluster checks the injector at every
  synchronization point.  A crashed worker's timeline freezes and its
  in-flight round contribution is lost; what happens next is the plan's
  declared :attr:`~repro.distributed.schedule.RoundPlan.on_failure` policy:
  ``"raise"`` aborts with a structured :class:`WorkerLostError` (or
  :class:`PartitionError` for a cut link), ``"stall"`` idles the cluster
  until the worker restarts (and re-runs its lost round) or the cut heals;
* **asynchronous solvers** — quorum Newton-ADMM and async SGD drop the
  crashed worker's in-flight push events, reweight their aggregation over the
  survivors, hold a cut worker's messages until the heal, and fold restarted
  workers back in when they return.

Every crash/restart/partition/heal that takes effect is recorded as an event
(exported to ``RunTrace.info["faults"]`` and rendered by
:func:`~repro.harness.plotting.plot_gantt` as ``X``/``^``/``(``/``)``
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

#: fault-handling policies a synchronous plan may declare (see ``RoundPlan``)
FAULT_POLICIES = ("raise", "stall")

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
class FailureModel:
    """When workers crash, whether they restart, and which links are cut.

    Attributes
    ----------
    crash_at_time:
        ``worker_id -> modelled time`` of a deterministic crash.
    restart_after:
        Seconds after a crash at which the worker comes back (``None`` =
        crashed workers never return).
    partitions:
        Optional :class:`PartitionModel` cutting links for time windows (a
        plain sequence of ``(workers, start, end)`` cuts is also accepted
        and wrapped).  Partitioned workers keep computing but cannot
        communicate until the window heals.

    Examples
    --------
    >>> FailureModel(crash_at_time={1: 5.0}, restart_after=2.0).active
    True
    >>> FailureModel().active        # no specs: attaching it changes nothing
    False
    """

    crash_at_time: Mapping[int, float] = field(default_factory=dict)
    restart_after: Optional[float] = None
    partitions: Optional[PartitionModel] = None

    def __post_init__(self) -> None:
        crash_at_time = {
            int(k): float(v) for k, v in dict(self.crash_at_time).items()
        }
        for wid, t in crash_at_time.items():
            if wid < 0:
                raise ValueError(f"worker id must be >= 0, got {wid}")
            if t < 0:
                raise ValueError(f"crash time must be >= 0, got {t}")
        if self.restart_after is not None and self.restart_after <= 0:
            raise ValueError(
                f"restart_after must be positive, got {self.restart_after}"
            )
        partitions = self.partitions
        if partitions is not None and not isinstance(partitions, PartitionModel):
            partitions = PartitionModel(cuts=partitions)
        # frozen dataclass: bypass the guard to store normalized copies
        object.__setattr__(self, "crash_at_time", crash_at_time)
        object.__setattr__(self, "partitions", partitions)

    @property
    def active(self) -> bool:
        """True when any crash or partition spec is set (an inactive model is
        a no-op)."""
        return bool(
            self.crash_at_time
            or (self.partitions is not None and self.partitions.active)
        )

    def start(self, n_workers: int) -> "FaultInjector":
        """Instantiate the runtime state machine for one cluster."""
        return FaultInjector(self, n_workers)

    def describe(self) -> dict:
        """JSON-serializable description (recorded in run provenance)."""
        return {
            "crash_at_time": {str(k): v for k, v in self.crash_at_time.items()},
            "restart_after": self.restart_after,
            "partitions": (
                self.partitions.describe() if self.partitions is not None else None
            ),
        }

    @classmethod
    def from_spec(cls, spec: str) -> "FailureModel":
        """Parse the CLI's ``--faults`` spec string.

        Comma-separated tokens:

        * ``W@T`` (or ``wW@T``) — worker ``W`` crashes at modelled time ``T``;
        * ``restart=S`` — crashed workers return after ``S`` seconds;
        * ``part=W[+W2...]@S-E`` — the listed workers are partitioned from
          the rest of the cluster during ``[S, E)`` (``E`` may be ``inf``);
          repeatable.

        A worker may carry at most one crash time: duplicate ``W@...``
        tokens (and a duplicate ``restart=``) raise a :class:`ValueError`
        naming the offending token instead of silently letting the last one
        win.

        Examples
        --------
        >>> FailureModel.from_spec("0@2.5,w1@4,restart=1.0").crash_at_time
        {0: 2.5, 1: 4.0}
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
        restart_after: Optional[float] = None
        cuts: List[Tuple[Tuple[int, ...], float, float]] = []
        for token in str(spec).split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip().lower()
                value = value.strip()
                if key == "restart":
                    if restart_after is not None:
                        raise ValueError(
                            f"duplicate fault-spec key {key!r} "
                            f"(token {token!r} in {spec!r})"
                        )
                    restart_after = parse_float(value, token, "restart=")
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
                else:
                    raise ValueError(
                        f"unknown fault-spec key {key!r} in token {token!r} "
                        f"of {spec!r}; expected restart= or part="
                    )
            elif "@" in token:
                wid_part, _, at = token.partition("@")
                wid_part = wid_part.strip().lstrip("wW")  # noqa: B005
                if not wid_part:
                    raise bad(token, "W@TIME")
                wid = parse_int(wid_part, token, "a worker id")
                if wid in crash_at_time:
                    raise ValueError(
                        f"duplicate crash schedule for worker {wid} "
                        f"(token {token!r} in {spec!r}); "
                        "one crash time per worker"
                    )
                crash_at_time[wid] = parse_float(
                    at.strip(), token, "the crash time"
                )
            else:
                raise ValueError(
                    f"cannot parse fault-spec token {token!r} in {spec!r}; "
                    "expected W@TIME, restart= or part="
                )
        return cls(
            crash_at_time=crash_at_time,
            restart_after=restart_after,
            partitions=PartitionModel(cuts=cuts) if cuts else None,
        )

class FaultInjector:
    """Runtime crash/restart state for one cluster run.

    Owned by the :class:`~repro.distributed.cluster.SimulatedCluster`
    (``cluster.fault_state``) and reset by ``reset_accounting``, so two runs
    on the same cluster see the same fault schedule.  All queries are pure
    reads of the schedule; the ``note_*`` methods record events as the
    simulation acts on them.

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
        """Restart the schedule (same model => same crashes next run)."""
        restart = self.model.restart_after
        #: events actually delivered to the simulation, in the order acted on
        self.events: List[Dict[str, float]] = []
        #: synchronization rounds seen so far (reported by events and errors)
        self.round = 0
        # each worker's crash interval [crash, restart), if it has one
        self._crash: Dict[int, Tuple[float, float]] = {
            wid: (t, t + restart if restart else _INF)
            for wid, t in self.model.crash_at_time.items()
            if wid < self.n_workers
        }
        # workers currently down, with their crash time; cleared on restart.
        self._down_since: Dict[int, float] = {}
        # workers currently behind an acted-on partition, with the window start.
        self._cut_since: Dict[int, float] = {}
        # crash/restart pairs not yet drawn onto a timeline (event engine).
        self._timeline_debt: Dict[int, List[float]] = {}

    # -- queries ------------------------------------------------------------
    def is_down(self, worker_id: int, t: float) -> bool:
        """Is the worker inside its crash interval at modelled time ``t``?"""
        c, r = self._crash.get(int(worker_id), (_INF, _INF))
        return c <= t < r

    def crash_time_of(self, worker_id: int, t: float) -> float:
        """Start of the crash interval containing ``t`` (requires ``is_down``)."""
        if not self.is_down(worker_id, t):
            raise ValueError(f"worker {worker_id} is not down at t={t}")
        return self._crash[int(worker_id)][0]

    def first_crash_in(
        self, worker_id: int, start: float, end: float
    ) -> Optional[float]:
        """The worker's crash if it falls in ``[start, end)``, else ``None``."""
        c, _ = self._crash.get(int(worker_id), (_INF, _INF))
        return c if start <= c < end else None

    def restart_time(self, worker_id: int, t: float) -> float:
        """When a worker down at ``t`` is back up (``inf`` = never, and for
        a worker that is not down at ``t``)."""
        if not self.is_down(worker_id, t):
            return _INF
        return self._crash[int(worker_id)][1]

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

    # -- round lifecycle ------------------------------------------------------
    def begin_round(self) -> None:
        """Count one synchronization round (events and errors report it)."""
        self.round += 1

    # -- event recording ------------------------------------------------------
    def note_crash(self, worker_id: int, time: float) -> None:
        """Record that the simulation acted on a crash (idempotent while down)."""
        wid = int(worker_id)
        if wid in self._down_since:
            return
        self._down_since[wid] = float(time)
        self._timeline_debt[wid] = [float(time)]
        self.events.append(
            {"kind": "crash", "worker_id": wid, "time": float(time),
             "round": self.round}
        )

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
        ``down`` segment to the recorded restart, then a ``wait`` to ``now``
        (it restarted mid-someone-else's round and waits for the next
        synchronization point).
        """
        wid = int(worker_id)
        debt = self._timeline_debt.pop(wid, None)
        if not debt or len(debt) < 2:
            if debt:  # crash recorded but no restart yet: keep the debt
                self._timeline_debt[wid] = debt
            return
        restart = debt[1]
        tl = engine.timeline(wid)
        if restart > tl.t:
            tl.advance(restart - tl.t, "down", "down")
        tl.wait_until(now, "restart")

    def rejoin_healed(self, now: float, engine) -> List[int]:
        """Rejoin every worker whose partition window has closed by ``now``.

        A window can close while nothing waits on it (it heals while the
        worker is down and a stall waits for the restart instead); this
        records such a heal at the next synchronization point and draws the
        ``unreachable`` window onto the worker's ``engine`` timeline, so
        provenance and Gantt markers stay complete.  Returns the rejoined
        worker ids.
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
