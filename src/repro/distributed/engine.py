"""Discrete-event engine: one timeline per worker, an event queue, and
barrier / collective primitives.

The paper's systems claims are claims about *schedules* — one synchronization
point per Newton-ADMM iteration versus GIANT's three, asynchronous SGD's
staleness penalty — and a single global clock cannot express them.  This
engine gives every simulated worker its own clock
(:class:`~repro.metrics.timeline.WorkerTimeline`) and provides the
synchronization vocabulary the distributed layer is rebuilt on:

``run_round``
    A synchronous round: each participant is busy for its own modelled
    time, then all barrier.  The shared :class:`SimulatedClock` is advanced by
    exactly ``max(times)``: the slowest participant sets the round's time.

``collective``
    A blocking collective barriers every worker and charges each of them the
    modelled communication time.

``post`` / ``pop``
    The event queue used by the true asynchronous path: a worker posts a
    message (its clock keeps running or goes idle — the engine does not care),
    and the consumer pops events in global-time order.  Asynchronous SGD's
    staleness and async Newton-ADMM's quorum schedule *emerge* from this
    queue instead of being closed-form assumptions.

The engine deliberately shares the cluster's :class:`SimulatedClock` so every
trace keeps reporting one modelled cluster time; per-worker detail lives in
the timelines, exported to traces and the Gantt plot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.metrics.timeline import WorkerTimeline, max_time
from repro.utils.timer import SimulatedClock

#: execution engines a cluster runs on: ``event`` schedules every worker
#: in-process on this module's engine; ``process`` runs each worker as a real
#: OS process over the same modelled accounting
#: (:mod:`repro.distributed.process_engine`)
ENGINE_MODES = ("event", "process")


def resolve_engine(name: str) -> str:
    """The canonical name of the execution engine ``name`` selects.

    ``"lockstep"`` is an alias of ``"event"``: it named a former in-process
    engine whose iterates and modelled times were bit-identical to the event
    engine's, so configurations that still say it run on the event engine.
    """
    name = "event" if name == "lockstep" else name
    if name not in ENGINE_MODES:
        raise ValueError(f"engine must be one of {ENGINE_MODES}, got {name!r}")
    return name


@dataclass(frozen=True, order=True)
class Event:
    """A message arriving at ``time`` from ``worker_id`` with a ``payload``.

    ``seq`` is the posting order and breaks time ties deterministically, so
    simultaneous arrivals resolve in the order they were scheduled (the heap
    never compares ``worker_id``/``payload``, which are excluded from
    ordering).
    """

    time: float
    seq: int
    worker_id: int = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventEngine:
    """Per-worker clocks + event queue over a shared simulated global clock.

    Parameters
    ----------
    n_workers:
        Number of worker timelines.
    clock:
        The cluster's :class:`SimulatedClock`; a private clock is created when
        omitted (unit tests).  The engine only ever *advances* it, keeping the
        modelled-time accounting of existing traces intact.

    Examples
    --------
    >>> engine = EventEngine(2)
    >>> engine.run_round({0: 1.0, 1: 3.0})   # synchronous round: barrier at max
    3.0
    >>> engine.collective(0.5)               # everyone pays the transfer
    3.5
    >>> engine.timelines[0].totals()["wait"] # the fast worker waited
    2.0
    """

    def __init__(self, n_workers: int, clock: Optional[SimulatedClock] = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.clock = clock if clock is not None else SimulatedClock()
        self.timelines: List[WorkerTimeline] = [
            WorkerTimeline(i) for i in range(self.n_workers)
        ]
        self._queue: List[Event] = []
        self._seq = 0

    # -- basic accessors ---------------------------------------------------
    @property
    def now(self) -> float:
        """The shared global clock (modelled cluster time)."""
        return self.clock.time

    def timeline(self, worker_id: int) -> WorkerTimeline:
        """The per-worker activity record (validates ``worker_id``)."""
        return self.timelines[self._check_worker(worker_id)]

    def time_of(self, worker_id: int) -> float:
        """Local clock of one worker."""
        return self.timeline(worker_id).t

    def _check_worker(self, worker_id: int) -> int:
        worker_id = int(worker_id)
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(
                f"worker_id must lie in [0, {self.n_workers}), got {worker_id}"
            )
        return worker_id

    # -- per-worker primitives ---------------------------------------------
    def compute(self, worker_id: int, seconds: float, label: str = "compute") -> float:
        """Advance one worker's clock by ``seconds`` of busy compute."""
        return self.timeline(worker_id).advance(seconds, "busy", label)

    def communicate(self, worker_id: int, seconds: float, label: str = "comm") -> float:
        """Advance one worker's clock by ``seconds`` of (blocking) transfer."""
        return self.timeline(worker_id).advance(seconds, "comm", label)

    def wait_until(self, worker_id: int, time: float, label: str = "wait") -> float:
        """Idle one worker until the absolute time ``time`` (no-op if past)."""
        return self.timeline(worker_id).wait_until(time, label)

    def mark_down(self, worker_id: int, until: float, label: str = "down") -> float:
        """Record a crash outage: the worker is ``down`` until ``until``.

        The fault injector uses this to draw a crashed worker's downtime onto
        its frozen timeline once the restart time is known; a target in the
        past is a no-op.
        """
        tl = self.timeline(worker_id)
        if until > tl.t:
            tl.advance(until - tl.t, "down", label)
        return tl.t

    def mark_unreachable(
        self, worker_id: int, until: float, label: str = "partition"
    ) -> float:
        """Record a partition window: the worker is ``unreachable`` until
        ``until``.

        Unlike :meth:`mark_down` the worker is alive (its state keeps
        advancing) — it just cannot exchange messages across the cut; a
        target in the past is a no-op.
        """
        tl = self.timeline(worker_id)
        if until > tl.t:
            tl.advance(until - tl.t, "unreachable", label)
        return tl.t

    # -- synchronization -----------------------------------------------------
    def barrier(
        self, worker_ids: Optional[Iterable[int]] = None, label: str = "barrier"
    ) -> float:
        """Wait all participants (default: everyone) to their common maximum.

        Returns the barrier time; fast participants get ``wait`` segments.
        The shared clock is *not* advanced — callers charge it explicitly
        (:meth:`run_round`, :meth:`collective`), once per synchronization
        point.
        """
        ids = (
            list(range(self.n_workers))
            if worker_ids is None
            else [self._check_worker(i) for i in worker_ids]
        )
        if not ids:
            raise ValueError("barrier needs at least one participant")
        t = max(self.timelines[i].t for i in ids)
        for i in ids:
            self.timelines[i].wait_until(t, label)
        return t

    def run_round(
        self,
        seconds_by_worker: Mapping[int, float],
        *,
        category: str = "compute",
        label: str = "compute",
    ) -> float:
        """One synchronous round: per-worker busy times, then a barrier.

        The shared clock advances by ``max(seconds_by_worker.values())``, the
        round's critical path.
        """
        if not seconds_by_worker:
            raise ValueError("run_round needs at least one worker time")
        for worker_id, seconds in seconds_by_worker.items():
            self.compute(worker_id, seconds, label)
        self.barrier(seconds_by_worker.keys(), label=label)
        self.clock.advance(max(seconds_by_worker.values()), category=category)
        return self.now

    def collective(
        self,
        seconds: float,
        *,
        category: str = "communication",
        label: str = "collective",
    ) -> float:
        """Blocking collective: barrier every worker, charge each ``seconds``."""
        self.barrier(label=label)
        for tl in self.timelines:
            tl.advance(seconds, "comm", label)
        self.clock.advance(seconds, category=category)
        return self.now

    # -- event queue -------------------------------------------------------
    def post(
        self,
        worker_id: int,
        delay: float,
        payload: Any = None,
        *,
        at: Optional[float] = None,
    ) -> Event:
        """Schedule an event ``delay`` seconds after ``at`` (default: the
        worker's current local time).

        The worker's clock is not advanced — the message is in flight while
        the worker does whatever it does next.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        worker_id = self._check_worker(worker_id)
        start = self.time_of(worker_id) if at is None else float(at)
        event = Event(start + delay, self._seq, worker_id, payload)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest pending event (ties: post order)."""
        if not self._queue:
            raise RuntimeError("event queue is empty — nothing was scheduled")
        return heapq.heappop(self._queue)

    def peek_time(self) -> float:
        """Arrival time of the earliest pending event (without removing it)."""
        if not self._queue:
            raise RuntimeError("event queue is empty — nothing was scheduled")
        return self._queue[0].time

    @property
    def n_pending(self) -> int:
        """Number of posted events not yet popped."""
        return len(self._queue)

    # -- global clock helpers ------------------------------------------------
    def advance_global_to(
        self, time: float, *, comm_seconds: float = 0.0
    ) -> float:
        """Advance the shared clock to the absolute time ``time``.

        ``comm_seconds`` of the delta is attributed to ``"communication"``
        (clamped to the delta), the rest to ``"compute"`` — the split used by
        the asynchronous schedules, where the critical path interleaves both.
        A target in the past is a no-op.
        """
        delta = time - self.clock.time
        if delta <= 0:
            return self.now
        comm = min(max(comm_seconds, 0.0), delta)
        if delta - comm > 0:
            self.clock.advance(delta - comm, category="compute")
        if comm > 0:
            self.clock.advance(comm, category="communication")
        return self.now

    def sync_global(self, *, category: str = "compute") -> float:
        """Advance the shared clock to the latest worker clock."""
        delta = max_time(self.timelines) - self.clock.time
        if delta > 0:
            self.clock.advance(delta, category=category)
        return self.now

    # -- bookkeeping -------------------------------------------------------
    def describe(self) -> Dict[str, float]:
        """Engine state snapshot (worker count, clocks, pending events)."""
        return {
            "n_workers": float(self.n_workers),
            "now": float(self.now),
            "pending_events": float(self.n_pending),
            "max_worker_time": float(max_time(self.timelines)),
        }

    def reset(self) -> None:
        """Fresh timelines and an empty queue (the shared clock is reset by
        its owner, normally ``SimulatedCluster.reset_accounting``)."""
        self.timelines = [WorkerTimeline(i) for i in range(self.n_workers)]
        self._queue = []
        self._seq = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EventEngine(n_workers={self.n_workers}, now={self.now:.6g}, "
            f"pending={self.n_pending})"
        )


def timelines_dict(timelines: Sequence[WorkerTimeline]) -> List[dict]:
    """Serializable form of the timelines (see ``RunTrace.info['timelines']``)."""
    return [tl.to_dict() for tl in timelines]
