"""Smoke test of the benchmark's own rules.  Run explicitly with
``pytest bench/`` — it is not collected by the tier-1 suite (``testpaths`` in
``pyproject.toml`` names ``tests`` and ``benchmarks`` only).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from bench import stats
from bench.spec import ROOT, WORKLOADS, BenchmarkSpec
from bench.tracing import SPAN_METRICS


def test_percentile_and_sample_count_rule():
    values = list(range(1, 1001))  # 1..1000
    assert stats.percentile(values, 0.5) == 501
    assert stats.percentile(values, 0.99) == 991
    assert stats.tail(values, 0.99) == {"value": 991, "n": 1000, "beyond": 9, "supported": False}
    assert stats.tail(list(range(1, 1102)), 0.99)["supported"]  # 1101 samples: 10 beyond
    assert stats.tail(values, 0.95)["beyond"] == 49
    assert stats.summary([3.0, 1.0, 2.0, 4.0]) == {
        "median": 2.5, "min": 1.0, "q1": 1.25, "q3": 3.75, "max": 4.0, "n": 4,
    }


def test_target_must_stay_below():
    walls = [1.0, 2.0, 3.0, 4.0, 5.0]
    # Dips under the target at the 2nd record, rebounds, settles from the 4th.
    assert stats.time_to_target([9.0, 0.5, 3.0, 0.9, 0.4], walls, 1.0) == (3, 4.0)
    assert stats.time_to_target([0.9, 0.8, 0.7, 0.6, 0.5], walls, 1.0) == (0, 1.0)
    assert stats.time_to_target([9.0, 0.5, 0.4, 0.3, 2.0], walls, 1.0) is None
    assert stats.time_to_target([9.0, 0.5, float("nan")], walls[:3], 1.0) is None


def test_self_time_is_span_minus_direct_children():
    spans = [
        ("fit", 0.0, 10.0, -1),
        ("cg", 1.0, 7.0, 0),
        ("hvp", 2.0, 4.0, 1),
        ("hvp", 4.0, 5.0, 1),
        ("predict", 8.0, 9.5, 0),
    ]
    assert stats.self_times(spans) == [2.5, 3.0, 2.0, 1.0, 1.5]
    by_name = stats.self_time_by_name(spans)
    assert by_name == {"fit": 2.5, "cg": 3.0, "hvp": 3.0, "predict": 1.5}
    assert sum(by_name.values()) == 10.0  # the parts sum to the root span


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05]
    assert stats.verdict(base, [10.3, 10.2, 10.4, 10.35], better="lower", bound=0.05) == "within"
    assert stats.verdict(base, [11.0, 11.1, 10.9, 11.2], better="lower", bound=0.05) == "worse"
    assert stats.verdict(base, [9.0, 9.1, 8.9, 9.05], better="lower", bound=0.05) == "better"
    assert stats.verdict(base, [9.0, 9.1, 8.9, 9.05], better="higher", bound=0.05) == "worse"
    assert stats.verdict(base, [], better="lower", bound=0.05) == "unresolved"
    noisy = [8.0, 12.0, 9.0, 11.0]  # spread wider than the bound
    assert stats.verdict(noisy, [9.5, 10.5, 10.0, 9.0], better="lower", bound=0.05) == "unresolved"
    assert stats.verdict(noisy, [7.0, 7.5, 6.0, 7.9], better="lower", bound=0.05) == "better"


def test_declared_names_are_the_measured_ones():
    spec = BenchmarkSpec()
    assert spec.workloads == list(WORKLOADS)
    assert set(spec.raw) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert "setup_s" in spec.end_to_end
    assert all(0 < m.bound <= 0.25 for m in spec.end_to_end.values())
    # Every self-time metric of the span partition is a declared layer metric.
    assert set(SPAN_METRICS.values()) <= set(spec.per_layer)
    with pytest.raises(RuntimeError, match="drifted from BENCHMARK.json"):
        spec.emit("end_to_end", {"setup_s": 1.0})


@pytest.mark.parametrize("trace", [0, 1])
def test_one_real_run_emits_exactly_the_declared_metrics(trace):
    spec = BenchmarkSpec()
    done = subprocess.run(
        [sys.executable, *spec.raw["command"][1:], "--workload", "serve_http", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode == 0
    line = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = spec.per_layer if trace else spec.end_to_end
    assert list(line["metrics"]) == list(declared)
    assert all(v["unit"] == declared[k].unit for k, v in line["metrics"].items())
