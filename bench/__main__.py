"""``python3 -m bench`` — the benchmark's single command.

``--workload NAME`` runs that workload in this interpreter and prints, as the
last line of standard output, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` every workload
runs in turn, each in a fresh interpreter, and the set of runs is written to a
result file that ``--compare A.json B.json`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from bench.host import pin_blas_threads, reap_resource_tracker

# Before NumPy is first imported, here and (inherited) in every rank and server.
BLAS_ENV_FOUND = pin_blas_threads()

from bench import stats  # noqa: E402
from bench.spec import RESULTS_ROOT, ROOT, WORKLOADS, BenchmarkSpec, add_src_to_path  # noqa: E402


def _print_metrics(result: dict) -> None:
    group = "per_layer" if result["traced"] else "end_to_end"
    print(f"== {result['workload']}  seed={result['seed']}  {group}")
    for name, metric in result[group].items():
        print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result["stats"].items():
        print(f"  ({name}: {json.dumps(value)})")
    calib = result["calib"]
    print(
        f"  (calibration GEMM {calib['gemm_ms_before']:.3f} -> {calib['gemm_ms_after']:.3f} ms, "
        f"drift {calib['drift_pct']:+.1f} %{', DRIFTED: unresolved, not a result' if calib['drifted'] else ''})"
    )
    print(f"  (operations: {result['attempted']} attempted, {result['failed']} failed)")
    for note in result["failures"]:
        print(f"  FAILED: {note}")


def run_one(args) -> int:
    add_src_to_path()
    from bench.runner import run_workload

    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), BLAS_ENV_FOUND
    )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(result, handle)
    _print_metrics(result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["per_layer" if result["traced"] else "end_to_end"],
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload x ``--runs`` seeds, one fresh interpreter each."""
    add_src_to_path()
    spec = BenchmarkSpec()
    out = os.path.abspath(args.out or RESULTS_ROOT / f"bench-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in spec.workloads:
            part = f"{out}.{name}.{seed}.part"
            command = [
                sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--json-out", part,
            ]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(done.stdout.rsplit("\n", 2)[0])  # all but the contract line
            if done.returncode != 0:
                print(f"bench: {name} seed {seed} exited with {done.returncode}", file=sys.stderr)
                return done.returncode
            with open(part) as handle:
                runs.append(json.load(handle))
            os.remove(part)
    by_run = {(r["workload"], r["seed"]): r for r in runs}
    failed = sum(r["failed"] for r in runs)
    for seed in range(args.seed, args.seed + args.runs):
        if by_run["dense_sim", seed]["final_w_sha256"] != by_run["dense_proc", seed]["final_w_sha256"]:
            failed += 1
            print(f"FAILED: dense_proc final_w differs from dense_sim final_w at seed {seed}")
    # "claim": no metric is claimed to improve by the change that records a baseline.
    with open(out, "w") as handle:
        json.dump({"schema": "bench-result/v1", "claim": None, "failed": failed, "runs": runs}, handle, indent=1)
    print(f"{len(runs)} runs, {failed} failed operations, {sum(r['calib']['drifted'] for r in runs)} drifted -> {out}")
    return 0 if failed == 0 else 1


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric: B against A under the metric's
    bound.  A drifted run is not a result: it is left out of its side."""
    spec = BenchmarkSpec()
    sides = []
    for path in (path_a, path_b):
        with open(path) as handle:
            runs = [r for r in json.load(handle)["runs"] if not r["traced"]]
        kept = [r for r in runs if not r["calib"]["drifted"]]
        print(f"{path}: {len(kept)} runs, {len(runs) - len(kept)} more drifted and left out")
        sides.append(kept)
    print(f"{'workload':<12} {'metric':<18} {'A median':>12} {'B median':>12} {'B vs A':>8} {'bound':>6}  verdict")
    worse = 0
    for name in spec.workloads:
        for metric in spec.end_to_end.values():
            a, b = (
                [r["end_to_end"][metric.name]["value"] for r in side if r["workload"] == name]
                for side in sides
            )
            outcome = stats.verdict(a, b, better=metric.better, bound=metric.bound)
            worse += outcome == "worse"
            if a and b:
                ma, mb = stats.summary(a)["median"], stats.summary(b)["median"]
                cells = f"{ma:>12.5g} {mb:>12.5g} {(mb - ma) / ma * 100:>+7.1f}%"
            else:
                cells = f"{'-':>12} {'-':>12} {'-':>8}"
            print(f"{name:<12} {metric.name:<18} {cells} {metric.bound * 100:>5.0f}%  {outcome}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1, help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1, help="without --workload: seeds SEED..SEED+RUNS-1")
    parser.add_argument("--out", help="without --workload: result file (default under .bench_results/)")
    parser.add_argument("--json-out", help="with --workload: also write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(BenchmarkSpec().run_seconds)
    try:
        return run_one(args) if args.workload else run_all(args)
    finally:
        # No process this run started may outlive it, on a failed run either.
        reap_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
