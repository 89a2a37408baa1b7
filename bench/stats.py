"""Pure rules of the benchmark: timing summaries, the tail-percentile sample
rule, the "stays below target" rule, self-time derivation and the compare
verdict.  No I/O and no ``repro`` imports, so ``test_bench_smoke.py`` can pin
each rule directly.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: a percentile is reported as supported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def summary(values: Sequence[float]) -> dict:
    """Median with min / quartiles / max and the sample count."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "max": ordered[-1],
        "n": len(ordered),
    }


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in (0, 1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def tail(values: Sequence[float], p: float) -> dict:
    """Percentile ``p`` plus whether the sample supports it: a tail percentile
    needs at least :data:`MIN_SAMPLES_BEYOND` samples beyond it."""
    beyond = len(values) - int(p * len(values)) - 1
    return {
        "value": percentile(values, p),
        "n": len(values),
        "beyond": beyond,
        "supported": beyond >= MIN_SAMPLES_BEYOND,
    }


def time_to_target(
    objectives: Sequence[float], wall_times: Sequence[float], threshold: float
) -> Optional[Tuple[int, float]]:
    """``(epoch index, wall time)`` of the first record from which the objective
    stays at or below ``threshold`` for every later record, or ``None``.

    "Stays below" and not "first below": the sparse trajectory is not monotone
    and dips under the target before it has converged.
    """
    first = None
    for k in range(len(objectives) - 1, -1, -1):
        if not objectives[k] <= threshold:  # also catches NaN
            break
        first = k
    if first is None:
        return None
    return first, wall_times[first]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of each ``(name, start, end, parent)`` span: its duration minus
    the durations of the spans it directly caused."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by_name(spans: Sequence[Sequence]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(
    a: Sequence[float],
    b: Sequence[float],
    *,
    better: str,
    bound: float,
) -> str:
    """Compare run set ``b`` against run set ``a`` on one metric of one workload.

    ``worse`` / ``better`` when the medians differ by more than ``bound`` (a
    share of ``a``'s median), ``within`` otherwise; ``unresolved`` when a side
    has no run left (drifted runs are not results), or either side's own spread
    exceeds the bound — unless every run of ``b`` reads better than every run
    of ``a``.
    """
    if not a or not b:
        return "unresolved"
    if max(spread(a), spread(b)) > bound:
        separated = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "better" if separated else "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) / abs(ma) if better == "lower" else (ma - mb) / abs(ma)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"
