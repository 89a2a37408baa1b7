"""One run of one workload in this interpreter: set-up, the fit phase, the
serve phase, the correctness checks, and the result record.

Only the program's public API is called — ``load_dataset``,
``SimulatedCluster``, ``NewtonADMM`` / ``SynchronousSGD`` ``.fit``, and (in
``bench.serving``) ``build_api`` + ``FallbackServer`` over real HTTP.  The
program receives generated inputs only; ``--seed`` feeds dataset generation,
sharding, the solver's ``random_state`` and the request payloads.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from bench import host, serving, stats
from bench.spec import LAM, N_WORKERS, TMP_ROOT, BenchmarkSpec, Workload
from bench.tracing import SPAN_METRICS, Recorder

#: measured and outside clocks may differ by this share of a fit (median over a
#: run's fits: after the last record the ranks finish unsynchronised, so one
#: descheduled rank stretches one fit's outside clock, an accounting error all)
WALL_TIME_TOL = 0.05
#: a traced fit's span tree must account for its outside clock to this share
SPAN_SUM_TOL = 0.02


class Ops:
    """Operations attempted and failed (fits; requests including publishes),
    plus run-level checks, each of which is one more operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)

    def merge(self, attempted: int, failed: int, notes: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes[: max(0, 20 - len(self.notes))])


def _make_solver(wl: Workload, seed: int):
    from repro import NewtonADMM, SynchronousSGD

    if wl.solver == "sync_sgd":
        return SynchronousSGD(lam=LAM, max_epochs=wl.max_epochs, random_state=seed)
    return NewtonADMM(lam=LAM, max_epochs=wl.max_epochs)


@dataclass
class Fit:
    """One ``solver.fit`` as the outside clock saw it."""

    trace: object
    seconds: float
    sha256: str
    epochs_to_target: int
    time_to_target: float
    wall_gap: float  # |final EpochRecord.wall_time - outside clock| / outside clock


def timed_fit(wl: Workload, cluster, test, seed: int, ops: Ops, same_as: Optional[str] = None) -> Fit:
    """Fit once under ``perf_counter`` (per-epoch records and accuracy on) and
    apply the per-fit checks; a violated check is one failed operation."""
    solver = _make_solver(wl, seed)
    t0 = time.perf_counter()
    trace = solver.fit(cluster, test=test)
    seconds = time.perf_counter() - t0
    records = trace.records
    sha256 = hashlib.sha256(np.ascontiguousarray(trace.final_w).tobytes()).hexdigest()
    reached = stats.time_to_target(
        [r.objective for r in records],
        [r.wall_time for r in records],
        wl.target_rel * math.log(cluster.n_classes),
    )
    declared = trace.info["schedule"]["declared"]
    epochs = len(trace.info["schedule"]["epochs"])
    comm = trace.info["communication"]
    problems = [
        note
        for ok, note in (
            (reached is not None, f"objective never stayed below {wl.target_rel} ln C"),
            (
                comm["rounds"] == declared["rounds"] * epochs
                and comm["collectives"] == declared["collectives"] * epochs,
                f"communication {comm} differs from the declared plan x {epochs} epochs",
            ),
            (same_as in (None, sha256), "final_w differs between repetitions or engines"),
        )
        if not ok
    ]
    ops.check(not problems, f"fit on {wl.name}: " + "; ".join(problems))
    epoch, at = (records[reached[0]].epoch, reached[1]) if reached else (0, 0.0)
    return Fit(trace, seconds, sha256, epoch, at, abs(records[-1].wall_time - seconds) / seconds)


def _layer_metrics_of_fit(recorder: Recorder, traced: Fit, reference: Fit, ops: Ops) -> Dict[str, float]:
    by_metric = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for name, seconds in stats.self_time_by_name(recorder.spans).items():
        by_metric[SPAN_METRICS[name]] += seconds
    ops.check(
        abs(sum(by_metric.values()) - traced.seconds) <= SPAN_SUM_TOL * traced.seconds,
        f"self times sum to {sum(by_metric.values()):.3f}s, traced fit took {traced.seconds:.3f}s",
    )
    trace, last = traced.trace, traced.trace.records[-1]
    hvp_s = by_metric["objectives.hvp_s"]
    by_metric.update(
        {
            "objectives.hvp_calls": recorder.calls("objectives.hvp"),
            "objectives.value_and_gradient_calls": recorder.calls("objectives.value_and_gradient"),
            "objectives.value_calls": recorder.calls("objectives.value"),
            "objectives.model_flops": trace.info["total_flops"],
            "objectives.hvp_gflops_per_s": recorder.counters["hvp_flops"] / hvp_s / 1e9 if hvp_s else 0.0,
            "linalg.cg_solves": recorder.calls("linalg.cg"),
            "linalg.cg_iters": recorder.counters["cg_iters"],
            "solvers.line_search_trials": recorder.counters["line_search_trials"],
            "distributed.cluster.map_workers_calls": recorder.calls("distributed.cluster.map_workers"),
            "distributed.schedule.plans": recorder.calls("distributed.schedule.execute"),
            "distributed.comm.collectives": trace.info["communication"]["collectives"],
            "distributed.comm.rounds": trace.info["communication"]["rounds"],
            "distributed.comm.bytes": trace.info["communication"]["bytes"],
            "distributed.solver_base.record_s": recorder.record_seconds(),
            "distributed.solver_base.records": len(trace.records),
            "metrics.epochs_to_target": traced.epochs_to_target,
            "metrics.time_to_target_s": traced.time_to_target,
            "metrics.modelled_time_s": last.modelled_time,
            "metrics.modelled_comm_s": last.comm_time,
            "metrics.modelled_compute_s": last.compute_time,
            "trace.overhead_pct": (traced.seconds - reference.seconds) / reference.seconds * 100.0,
        }
    )
    wall = trace.info.get("wall_clock", {}).get("summary")
    by_metric.update(
        {
            "distributed.process_engine.busy_s": wall["busy_seconds"] if wall else 0.0,
            "distributed.process_engine.comm_s": wall["comm_seconds"] if wall else 0.0,
            "distributed.process_engine.makespan_s": wall["makespan_seconds"] if wall else 0.0,
            "distributed.process_engine.parallel_efficiency": wall["parallel_efficiency"] if wall else 0.0,
            "distributed.process_engine.outside_ranks_s": traced.seconds - wall["makespan_seconds"] if wall else 0.0,
        }
    )
    return by_metric


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool, blas_env_found: dict) -> dict:
    """Run ``wl`` once; returns the full result record (see ``bench/README.md``)."""
    from repro import SimulatedCluster, load_dataset

    spec = BenchmarkSpec()
    ops = Ops()
    fingerprint = host.fingerprint(blas_env_found)
    shm_before = host.shm_entries()
    calib_before = host.calib_gemm_ms()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=TMP_ROOT)
    layers: Dict[str, float] = {}
    cluster = None
    done: List[Fit] = []

    def fit_once(on, same_as: Optional[str] = None) -> Fit:
        done.append(timed_fit(wl, on, test, seed, ops, same_as))
        return done[-1]

    try:
        # ---- set-up of the fit phase: data, cluster, pool, warm-up fit ------
        t_setup = time.perf_counter()
        train, test = load_dataset(wl.dataset, n_train=wl.n_train, n_test=wl.n_test, random_state=seed)
        t_generated = time.perf_counter()
        cluster = SimulatedCluster(train, N_WORKERS, engine=wl.engine, random_state=seed)
        t_built = time.perf_counter()
        runtime = cluster.process_runtime
        if runtime is not None:
            runtime.ensure_started()
        t_pool = time.perf_counter()
        warm = fit_once(cluster)
        setup_fit_s = time.perf_counter() - t_setup
        layers.update(
            {
                "datasets.generate_s": t_generated - t_setup,
                "datasets.cluster_build_s": t_built - t_generated,
                "distributed.process_engine.pool_start_s": t_pool - t_built if runtime is not None else 0.0,
                "distributed.process_engine.shm_bytes": runtime.shm_bytes if runtime is not None else 0,
            }
        )

        # ---- fit phase --------------------------------------------------------
        if traced:
            reference = fit_once(cluster, warm.sha256)
            with Recorder() as recorder:
                fit = fit_once(cluster, warm.sha256)
            fits = [fit]
            layers.update(_layer_metrics_of_fit(recorder, fit, reference, ops))
            speedup = 0.0
            if runtime is not None:
                # The plain single-process run of the same inputs: same data,
                # same shards, the default engine.  Iterates must be bit-identical.
                plain = SimulatedCluster(train, N_WORKERS, random_state=seed)
                fit_once(plain, warm.sha256)
                speedup = fit_once(plain, warm.sha256).seconds / reference.seconds
            layers["distributed.process_engine.speedup_vs_inproc_x"] = speedup
        else:
            n_fits = max(2, round(wl.fit_share * seconds / warm.seconds))
            fits = [fit_once(cluster, warm.sha256) for _ in range(n_fits)]
        wall_gap = statistics.median(f.wall_gap for f in done)
        ops.check(
            wall_gap <= WALL_TIME_TOL,
            f"final wall_time is {wall_gap:.1%} of a fit from the outside clock (median of {len(done)} fits)",
        )
        final_w = fits[-1].trace.final_w
        # Ranks 1..n-1 are this interpreter's multiprocessing children until close().
        ranks_rss_mb = sum(host.peak_rss_mb(rank.pid) for rank in multiprocessing.active_children())
        cluster.close()
        cluster = None

        # ---- serve phase: the fitted model, hot-swapped with a damped copy ---
        t_serve_setup = time.perf_counter()
        rows = test.X.toarray() if test.is_sparse else np.asarray(test.X)
        payloads = serving.Payloads(
            rows, [final_w, 0.5 * final_w], train.n_classes, np.random.default_rng([seed, 0xBE])
        )
        encode_s = time.perf_counter() - t_serve_setup
        served = serving.http_phase(
            os.path.join(tmp, "registry"), payloads, wl.clients, wl.serve_share * seconds, ops
        )
        if traced:
            replayed, in_process_ms_1 = serving.replay_layers(os.path.join(tmp, "replay"), payloads)
            layers.update(replayed)
            layers["serving.http_fallback.overhead_ms"] = served["predict1_ms"]["median"] - in_process_ms_1
    finally:
        if cluster is not None:
            cluster.close()
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()

    calib_after = host.calib_gemm_ms()
    drift = (calib_after - calib_before) / calib_before * 100.0
    ops.check(host.shm_entries() <= shm_before, "/dev/shm entries left behind")
    peak_rss_mb = host.peak_rss_mb(os.getpid()) + ranks_rss_mb + served["server_rss_mb"]

    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "host": fingerprint,
        "calib": {
            "gemm_ms_before": calib_before,
            "gemm_ms_after": calib_after,
            "drift_pct": drift,
            "drifted": abs(drift) > host.DRIFT_LIMIT_PCT,
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.notes,
        "final_w_sha256": fits[-1].sha256,
        "stats": {
            "fit_s": stats.summary([f.seconds for f in fits]),
            "time_to_target_s": stats.summary([f.time_to_target for f in fits]),
            "epochs_to_target": fits[-1].epochs_to_target,
            "predict1_ms": served["predict1_ms"],
            "predict32_ms": served["predict32_ms"],
            "predict1_p99": served["predict1_p99"],
            "predict32_p95": served["predict32_p95"],
            "version_lag": served["version_lag"],
        },
    }
    if traced:
        engine = served["server_stats"]
        layers.update(
            {
                "serving.http.predict1_p99_ms": served["predict1_p99"]["value"],
                "serving.http.predict32_p50_ms": served["predict32_ms"]["median"],
                "serving.http.predict32_p95_ms": served["predict32_p95"]["value"],
                "serving.publish_http_ms": served["publish_http_ms"],
                "serving.engine.mean_batch_requests": engine.get("mean_batch_requests", 0.0),
                "serving.engine.batches": engine.get("batches", 0),
                "serving.engine.model_swaps": engine.get("model_swaps", 0),
                "host.calib_gemm_ms": calib_before,
                "host.calib_drift_pct": drift,
            }
        )
        result["per_layer"] = spec.emit("per_layer", layers)
    else:
        result["end_to_end"] = spec.emit(
            "end_to_end",
            {
                "setup_s": setup_fit_s + encode_s + served["setup_s"],
                "fit_s": statistics.median(f.seconds for f in fits),
                "peak_rss_mb": peak_rss_mb,
                "requests_per_s": served["requests_per_s"],
                "predict1_p50_ms": served["predict1_ms"]["median"],
            },
        )
    return result
