"""Per-worker timelines: busy / wait / comm segments of a modelled schedule.

The discrete-event engine (:mod:`repro.distributed.engine`) gives every
simulated worker its own clock; this module holds the record of what each
worker was doing and when.  A timeline is an append-only list of
:class:`TimelineSegment` (busy compute, barrier/straggler wait, communication).

These records are what the Gantt export
(:func:`repro.harness.plotting.plot_gantt`) renders and what the
straggler/async analyses aggregate: synchronous methods show growing ``wait``
bars on the fast workers as stragglers slow a round down, while asynchronous
schedules show staggered ``busy`` bars and per-worker progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: segment kinds in display order (``down`` = crashed, waiting for restart;
#: ``unreachable`` = up and computing, but behind a network partition)
SEGMENT_KINDS = ("busy", "wait", "comm", "down", "unreachable")


@dataclass(frozen=True)
class TimelineSegment:
    """One contiguous activity interval on a worker's clock."""

    start: float
    end: float
    kind: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"segment ends before it starts: [{self.start}, {self.end}]"
            )
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(
                f"unknown segment kind {self.kind!r}; expected one of {SEGMENT_KINDS}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "start": float(self.start),
            "end": float(self.end),
            "kind": self.kind,
            "label": self.label,
        }


@dataclass
class WorkerTimeline:
    """Append-only activity record of one worker, with its local clock ``t``.

    The engine advances ``t`` through :meth:`advance` (busy/comm work) and
    :meth:`wait_until` (barrier or idle waits); zero-length intervals are not
    recorded.
    """

    worker_id: int
    t: float = 0.0
    segments: List[TimelineSegment] = field(default_factory=list)

    def advance(self, seconds: float, kind: str = "busy", label: str = "") -> float:
        """Advance the local clock by ``seconds`` doing ``kind`` work."""
        if seconds < 0:
            raise ValueError(f"cannot advance timeline by negative time {seconds!r}")
        if seconds > 0:
            self.segments.append(
                TimelineSegment(self.t, self.t + seconds, kind, label)
            )
            self.t += seconds
        return self.t

    def wait_until(self, time: float, label: str = "barrier") -> float:
        """Idle (``wait``) until the absolute local time ``time``.

        A target in the past is a no-op: the worker is already there.
        """
        if time > self.t:
            self.advance(time - self.t, "wait", label)
        return self.t

    # -- aggregation -------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Seconds spent per segment kind."""
        out = {kind: 0.0 for kind in SEGMENT_KINDS}
        for seg in self.segments:
            out[seg.kind] += seg.duration
        return out

    @property
    def span(self) -> float:
        """Total local time covered (== the local clock)."""
        return self.t

    def utilization(self) -> float:
        """Fraction of the span spent busy (``nan`` for an empty timeline)."""
        if self.t <= 0:
            return float("nan")
        return self.totals()["busy"] / self.t

    def to_dict(self, *, include_segments: bool = True) -> dict:
        out = {"worker_id": int(self.worker_id), "total": float(self.t)}
        out.update({k: float(v) for k, v in self.totals().items()})
        if include_segments:
            out["segments"] = [seg.to_dict() for seg in self.segments]
        return out


def timeline_summary(
    timelines: Sequence[WorkerTimeline], *, include_segments: bool = False
) -> List[dict]:
    """One row per worker: busy/wait/comm totals and utilization.

    This is the table behind the straggler analyses: under a persistent
    straggler every non-straggling worker's ``wait`` grows to cover the
    slow worker's extra compute on synchronous schedules, and shrinks to
    near zero on quorum-based asynchronous ones.
    """
    rows = []
    for tl in timelines:
        row = tl.to_dict(include_segments=include_segments)
        row["utilization"] = float(tl.utilization())
        rows.append(row)
    return rows


def max_time(timelines: Sequence[WorkerTimeline]) -> float:
    """Latest local clock across the timelines (0 when empty)."""
    return max((tl.t for tl in timelines), default=0.0)


def epoch_window(
    boundaries: Sequence[Sequence[float]], epoch: int, n_workers: int
):
    """Per-worker window of one epoch: ``(starts, ends, t0)``.

    ``boundaries[e][i]`` is worker ``i``'s local clock at the end of epoch
    ``e + 1``; epoch ``epoch`` (1-based) runs, on worker ``i``, from
    ``boundaries[epoch - 2][i]`` (or 0 for the first epoch) to
    ``boundaries[epoch - 1][i]``.  ``t0`` is the earliest window start
    across workers — the shift that places the sliced epoch at 0.  This is
    the single definition of the window both :func:`slice_epoch` (segments)
    and the Gantt export's fault-marker remap consume, so they cannot drift
    apart.
    """
    if not 1 <= epoch <= len(boundaries):
        raise ValueError(
            f"epoch must lie in [1, {len(boundaries)}], got {epoch}"
        )
    starts = (
        [0.0] * n_workers if epoch == 1 else list(boundaries[epoch - 2])
    )
    ends = list(boundaries[epoch - 1])
    if len(starts) != n_workers or len(ends) != n_workers:
        raise ValueError(
            f"boundaries describe {len(ends)} workers, got {n_workers} timelines"
        )
    return starts, ends, min(starts)


def slice_epoch(
    timelines: Sequence[WorkerTimeline],
    boundaries: Sequence[Sequence[float]],
    epoch: int,
) -> List[WorkerTimeline]:
    """Cut one epoch's window out of cumulative per-worker timelines.

    The window per worker comes from :func:`epoch_window`.  Segments are
    clipped to it and shifted so the earliest window start across workers
    lands at 0 — workers keep their relative offsets, which is what makes
    asynchronous epochs render honestly.
    """
    starts, ends, t0 = epoch_window(boundaries, epoch, len(timelines))

    def clipped(segments, start: float, end: float) -> List[TimelineSegment]:
        out = []
        for seg in segments:
            lo, hi = max(seg.start, start), min(seg.end, end)
            if hi > lo:
                out.append(TimelineSegment(lo - t0, hi - t0, seg.kind, seg.label))
        return out

    sliced: List[WorkerTimeline] = []
    for tl, start, end in zip(timelines, starts, ends):
        cut = WorkerTimeline(worker_id=tl.worker_id)
        cut.segments = clipped(tl.segments, start, end)
        cut.t = end - t0
        sliced.append(cut)
    return sliced


def wall_clock_summary(rows: Sequence[dict]) -> dict:
    """Aggregate *measured* per-rank wall-clock timelines (process engine).

    ``rows`` are serialized :class:`WorkerTimeline` dicts where segments hold
    real ``perf_counter`` durations instead of modelled seconds: ``busy`` is
    time inside local compute, ``comm`` is time blocked in the exchange that
    ends a local round (which includes waiting for slower ranks — a rank
    cannot tell that from transfer time, the pipe it blocks on carries
    both).  The summary reports the makespan (slowest rank)
    and the parallel efficiency ``sum(busy) / (n * makespan)`` — the number
    that says how much of the machine the run actually used, and the honest
    counterpart of the modelled speedups the event engine reports.
    """
    makespan = max((float(r.get("total", 0.0)) for r in rows), default=0.0)
    busy = sum(float(r.get("busy", 0.0)) for r in rows)
    comm = sum(float(r.get("comm", 0.0)) for r in rows)
    wait = sum(float(r.get("wait", 0.0)) for r in rows)
    n = len(rows)
    return {
        "n_workers": n,
        "makespan_seconds": makespan,
        "busy_seconds": busy,
        "comm_seconds": comm,
        "wait_seconds": wait,
        "parallel_efficiency": (
            busy / (n * makespan) if n and makespan > 0 else float("nan")
        ),
    }


def timelines_from_dicts(rows: Sequence[dict]) -> List[WorkerTimeline]:
    """Rebuild :class:`WorkerTimeline` objects from serialized dictionaries.

    Used to re-render Gantt charts from saved traces; rows without a
    ``segments`` list come back as empty timelines with the recorded span.
    """
    out: List[WorkerTimeline] = []
    for row in rows:
        tl = WorkerTimeline(worker_id=int(row["worker_id"]))
        for seg in row.get("segments", ()):  # pragma: no branch
            tl.segments.append(
                TimelineSegment(
                    float(seg["start"]), float(seg["end"]), seg["kind"],
                    seg.get("label", ""),
                )
            )
        tl.t = float(row.get("total", tl.segments[-1].end if tl.segments else 0.0))
        out.append(tl)
    return out
