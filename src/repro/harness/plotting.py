"""Dependency-free ASCII plotting for traces and scaling curves.

The paper's figures are line plots (objective / accuracy against time, epoch
time against worker count).  Matplotlib is deliberately not a dependency of
this reproduction; these helpers render the same curves as monospace text so
``python -m repro run figure1`` and the examples can show the figure shape
directly in a terminal or a log file.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.traces import RunTrace

_MARKERS = "ox+*#@%&"


def ascii_line_plot(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 72,
    height: int = 20,
    title: Optional[str] = None,
    x_label: str = "x",
    y_label: str = "y",
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render one or more ``(x, y)`` series on a shared ASCII canvas.

    Parameters
    ----------
    series:
        Mapping from legend label to ``(x_values, y_values)``.
    width, height:
        Canvas size in characters (excluding axes labels).
    log_x, log_y:
        Plot on a log10 scale (non-positive values are dropped).
    """
    if width < 10 or height < 5:
        raise ValueError("canvas must be at least 10x5 characters")
    if not series:
        raise ValueError("series must not be empty")

    cleaned: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for label, (xs, ys) in series.items():
        x = np.asarray(list(xs), dtype=np.float64)
        y = np.asarray(list(ys), dtype=np.float64)
        if x.shape != y.shape:
            raise ValueError(f"series {label!r} has mismatched x/y lengths")
        mask = np.isfinite(x) & np.isfinite(y)
        if log_x:
            mask &= x > 0
        if log_y:
            mask &= y > 0
        x, y = x[mask], y[mask]
        if x.size:
            cleaned[label] = (np.log10(x) if log_x else x, np.log10(y) if log_y else y)
    if not cleaned:
        return (title or "") + "\n(no finite data to plot)"

    all_x = np.concatenate([x for x, _ in cleaned.values()])
    all_y = np.concatenate([y for _, y in cleaned.values()])
    x_min, x_max = float(all_x.min()), float(all_x.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for idx, (x, y) in enumerate(cleaned.values()):
        marker = _MARKERS[idx % len(_MARKERS)]
        cols = np.clip(((x - x_min) / x_span * (width - 1)).round().astype(int), 0, width - 1)
        rows = np.clip(((y - y_min) / y_span * (height - 1)).round().astype(int), 0, height - 1)
        for c, r in zip(cols, rows):
            canvas[height - 1 - r][c] = marker

    def fmt(v: float, logged: bool) -> str:
        return f"{10**v:.3g}" if logged else f"{v:.3g}"

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} (top={fmt(y_max, log_y)}, bottom={fmt(y_min, log_y)})")
    for row in canvas:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(
        f" {x_label}: {fmt(x_min, log_x)} .. {fmt(x_max, log_x)}"
        + ("  [log x]" if log_x else "")
        + ("  [log y]" if log_y else "")
    )
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}" for i, label in enumerate(cleaned)
    )
    lines.append(" legend: " + legend)
    return "\n".join(lines)


def plot_traces(
    traces: Dict[str, RunTrace],
    *,
    y: str = "objective",
    time_kind: str = "modelled",
    log_x: bool = True,
    log_y: bool = False,
    width: int = 72,
    height: int = 20,
    title: Optional[str] = None,
) -> str:
    """ASCII plot of a metric against cumulative time for several traces.

    This is the shape of the paper's Figures 1, 4 and 5 (objective or test
    accuracy versus wall-clock on a log time axis).
    """
    series = {}
    for label, trace in traces.items():
        xs, ys = trace.series(y=y, time_kind=time_kind)
        series[label] = (xs, ys)
    return ascii_line_plot(
        series,
        width=width,
        height=height,
        title=title or f"{y} vs {time_kind} time",
        x_label=f"{time_kind} time (s)",
        y_label=y,
        log_x=log_x,
        log_y=log_y,
    )


#: Gantt glyphs per segment kind (busy compute, barrier/idle wait, transfer,
#: crashed-awaiting-restart downtime, alive-but-partitioned unreachability)
_GANTT_GLYPHS = {
    "busy": "#",
    "wait": ".",
    "comm": "~",
    "down": "x",
    "unreachable": "=",
}

#: row markers per recorded fault-event kind (see ``trace.info["faults"]``)
_EVENT_MARKERS = {
    "crash": "X",
    "restart": "^",
    "partition": "(",
    "heal": ")",
}


def plot_gantt(
    timelines,
    *,
    width: int = 72,
    until: Optional[float] = None,
    title: Optional[str] = None,
    epoch: Optional[int] = None,
) -> str:
    """ASCII Gantt chart of per-worker timelines (busy ``#``, wait ``.``,
    comm ``~``, crash downtime ``x``, unreachable ``=``).

    ``timelines`` is a :class:`~repro.metrics.traces.RunTrace` (its recorded
    ``info["timelines"]`` are rendered), a sequence of
    :class:`~repro.metrics.timeline.WorkerTimeline` objects, or their
    serialized dictionaries (``RunTrace.info["timelines"]``).  Each row is one
    worker; a cell shows the activity occupying most of its time slice.  This
    is the schedule view behind the straggler and async analyses: persistent
    stragglers show as rows of solid ``#`` while their peers fill with ``.``
    on synchronous runs, and as staggered ``#`` blocks on quorum schedules.

    When the trace carries injected fault events (``info["faults"]``,
    recorded by :mod:`repro.distributed.faults`), each crash marks ``X``,
    each restart ``^``, each partition cut ``(`` and each heal ``)`` on the
    affected worker's row, on top of the ``x`` downtime / ``=`` unreachable
    fills.

    ``epoch`` (1-based, requires a trace) renders a single epoch instead of
    the cumulative fit: the trace's per-epoch boundary snapshots
    (``info["timeline_epochs"]``) locate the window on every worker's clock.
    Fault events are stamped on the global clock; the ones falling inside a
    worker's epoch window are remapped onto the sliced rows, so per-epoch
    Gantts keep their crash/restart/partition markers.
    """
    from repro.metrics.timeline import (
        WorkerTimeline,
        epoch_window,
        slice_epoch,
        timelines_from_dicts,
    )

    fault_events = ()
    if isinstance(timelines, RunTrace):
        trace = timelines
        fault_events = trace.info.get("faults", {}).get("events", ())
        rows = trace.info.get("timelines")
        if not rows:
            raise ValueError(
                "trace has no recorded timelines (the fit ran no round)"
            )
        timelines = timelines_from_dicts(rows)
        if epoch is not None:
            boundaries = trace.info.get("timeline_epochs", {}).get("boundaries")
            if not boundaries:
                raise ValueError(
                    "trace has no per-epoch timeline boundaries "
                    "(info['timeline_epochs'])"
                )
            # Events are stamped on the global clock; remap the ones landing
            # inside each worker's epoch window into the sliced frame (the
            # same window + shift slice_epoch applies to the segments).
            # Windows are half-open so a boundary event renders in exactly
            # one epoch; the final epoch keeps its right edge.
            starts, ends, t0 = epoch_window(boundaries, epoch, len(timelines))
            last = epoch == len(boundaries)
            remapped = []
            for event in fault_events:
                wid = int(event.get("worker_id", -1))
                t = float(event.get("time", -1.0))
                if not 0 <= wid < len(starts):
                    continue
                if starts[wid] <= t < ends[wid] or (last and t == ends[wid]):
                    remapped.append({**event, "time": t - t0})
            fault_events = remapped
            timelines = slice_epoch(timelines, boundaries, epoch)
            if title is None:
                title = f"{trace.method} — epoch {epoch}"
    elif epoch is not None:
        raise ValueError(
            "epoch slicing needs a RunTrace with recorded epoch boundaries; "
            "pass the trace instead of raw timelines"
        )
    if not timelines:
        raise ValueError("timelines must not be empty")
    if not isinstance(timelines[0], WorkerTimeline):
        timelines = timelines_from_dicts(timelines)
    if width < 10:
        raise ValueError("canvas must be at least 10 characters wide")
    span = until if until is not None else max(tl.t for tl in timelines)
    if span <= 0:
        return (title or "gantt") + "\n(no recorded activity)"

    def render(segments) -> str:
        # Majority activity per cell; later segments win exact ties so the
        # chart reflects what the worker moved on to.
        occupancy = [{} for _ in range(width)]
        for seg in segments:
            lo = int(np.clip(seg.start / span * width, 0, width - 1))
            hi = int(np.clip(np.ceil(seg.end / span * width), lo + 1, width))
            for cell in range(lo, hi):
                cell_start = cell * span / width
                cell_end = (cell + 1) * span / width
                overlap = min(seg.end, cell_end) - max(seg.start, cell_start)
                if overlap > 0:
                    bucket = occupancy[cell]
                    bucket[seg.kind] = bucket.get(seg.kind, 0.0) + overlap
        chars = []
        for bucket in occupancy:
            if not bucket:
                chars.append(" ")
                continue
            # >= so the later-inserted kind wins exact ties (segments are
            # appended chronologically, dicts preserve insertion order).
            kind, best = None, -1.0
            for candidate, overlap in bucket.items():
                if overlap >= best:
                    kind, best = candidate, overlap
            chars.append(_GANTT_GLYPHS.get(kind, "?"))
        return "".join(chars)

    lines = [title] if title else []
    lines.append(
        f"gantt 0 .. {span:.3g}s   legend: # busy   . wait   ~ comm   "
        f"x down   = unreachable   X crash   ^ restart   ( cut   ) heal"
    )
    row_of = {}
    for tl in timelines:
        lines.append(f"w{tl.worker_id:<3d}|{render(tl.segments)}|")
        row_of[int(tl.worker_id)] = len(lines) - 1
    # Overlay crash/restart markers from recorded fault events.  Rows are
    # "wNNN|<cells>|": the cell area starts at column 5.
    for event in fault_events:
        row = row_of.get(int(event.get("worker_id", -1)))
        t = float(event.get("time", -1.0))
        if row is None or not 0.0 <= t <= span:
            continue
        col = int(np.clip(t / span * width, 0, width - 1))
        marker = _EVENT_MARKERS.get(event.get("kind"), "?")
        chars = list(lines[row])
        chars[5 + col] = marker
        lines[row] = "".join(chars)
    return "\n".join(lines)


def format_schedule(trace: RunTrace) -> str:
    """Human-readable summary of a trace's declared + observed round schedule.

    Solvers that compile their epochs into a
    :class:`~repro.distributed.schedule.RoundPlan` record the declared
    structure and the per-epoch observations in ``trace.info["schedule"]``;
    this renders them as the schedule table the harness reports print.
    """
    schedule = trace.info.get("schedule")
    if not schedule:
        return f"{trace.method}: no declared schedule (event-driven or legacy run)"
    declared = schedule.get("declared") or {}
    lines = [
        f"schedule of {trace.method} ({declared.get('plan', trace.method)}):",
        f"  declared: {declared.get('rounds')} communication round(s)/epoch"
        + f", {declared.get('local_steps', 0)} local step(s)"
        + (
            f", on worker failure: {declared['on_failure']}"
            if declared.get("on_failure") not in (None, "raise")
            else ""
        ),
    ]
    def render_steps(steps, indent: str) -> None:
        for step in steps:
            kind = step.get("step")
            if kind == "local":
                lines.append(
                    f"{indent}local     {step.get('label', step.get('name', ''))}"
                )
            elif kind == "collective":
                suffix = " [joint]" if step.get("joint_with_previous") else ""
                lines.append(f"{indent}comm      {step['op']}({step['name']}){suffix}")
            elif kind == "repeat":
                lines.append(f"{indent}repeat    x{step['times']}:")
                render_steps(step.get("steps", ()), indent + "  ")

    render_steps(declared.get("steps", ()), "    ")
    epochs = schedule.get("epochs", ())
    if epochs:
        observed = [e["rounds"] for e in epochs]
        total_bytes = sum(e.get("bytes", 0.0) for e in epochs)
        lines.append(
            f"  observed: rounds/epoch min {min(observed)} max {max(observed)} "
            f"over {len(epochs)} epoch(s), {total_bytes:.3g} bytes total"
        )
    return "\n".join(lines)


def plot_scaling(
    rows: Sequence[dict],
    *,
    x_key: str = "workers",
    y_key: str = "avg_epoch_time_ms",
    group_key: str = "method",
    width: int = 60,
    height: int = 15,
    title: Optional[str] = None,
) -> str:
    """ASCII plot of a scaling study (Figure 2's epoch time vs worker count)."""
    groups: Dict[str, Tuple[list, list]] = {}
    for row in rows:
        label = str(row.get(group_key, ""))
        groups.setdefault(label, ([], []))
        value = row.get(y_key)
        x = row.get(x_key)
        if value is None or x is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            continue
        groups[label][0].append(float(x))
        groups[label][1].append(float(value))
    return ascii_line_plot(
        {k: v for k, v in groups.items() if v[0]},
        width=width,
        height=height,
        title=title or f"{y_key} vs {x_key}",
        x_label=x_key,
        y_label=y_key,
    )
