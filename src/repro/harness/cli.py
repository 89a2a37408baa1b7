"""Command-line interface for the reproduction harness.

Usage (after ``pip install -e .`` or with ``src/`` on ``PYTHONPATH``)::

    python -m repro list                      # experiments and their content
    python -m repro datasets                  # registered workloads
    python -m repro run figure1 --scale quick --out results/
    python -m repro run all --scale small --out results/small
    python -m repro solvers                   # registered distributed solvers
    python -m repro lint                      # repo-contract static lint

``run`` executes the selected figure/table driver(s), prints the same report
the paper's figure shows, writes rows (JSON + CSV), per-method traces and the
report into ``--out``, and — for the time-series figures — renders an ASCII
version of the plot.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.datasets.registry import DATASET_REGISTRY
from repro.distributed.engine import ENGINE_MODES, resolve_engine
from repro.harness import experiments
from repro.harness.config import ExperimentScale
from repro.harness.plotting import plot_traces
from repro.harness.runner import SOLVER_REGISTRY
from repro.harness.serialization import save_experiment_result
from repro.metrics.summary import format_table
from repro.metrics.traces import RunTrace

#: experiment name -> (driver, description, plottable metric or None)
EXPERIMENT_REGISTRY: Dict[str, tuple] = {
    "table1": (
        experiments.table1_datasets,
        "Table 1 — dataset descriptions (paper vs. reproduction)",
        None,
    ),
    "figure1": (
        experiments.figure1_second_order_comparison,
        "Figure 1 — Newton-ADMM vs GIANT / InexactDANE / AIDE on MNIST",
        "objective",
    ),
    "figure2": (
        experiments.figure2_epoch_times,
        "Figure 2 — average epoch time, strong & weak scaling",
        None,
    ),
    "figure3": (
        experiments.figure3_speedup_ratios,
        "Figure 3 — speed-up ratio of Newton-ADMM over GIANT",
        None,
    ),
    "figure4": (
        experiments.figure4_first_order_comparison,
        "Figure 4 — Newton-ADMM vs synchronous SGD",
        "objective",
    ),
    "figure5": (
        experiments.figure5_e18_weak_scaling,
        "Figure 5 — E18-like weak scaling with 16 workers",
        "objective",
    ),
    "ablation-penalty": (
        experiments.ablation_penalty_policies,
        "Ablation — SPS vs residual balancing vs fixed penalty",
        "objective",
    ),
    "ablation-cg": (
        experiments.ablation_cg_budget,
        "Ablation — CG budget of the local Newton solves",
        None,
    ),
    "ablation-overrelax": (
        experiments.ablation_over_relaxation,
        "Ablation — ADMM over-relaxation factor",
        "objective",
    ),
    "ablation-network": (
        experiments.ablation_interconnect_sensitivity,
        "Ablation — interconnect sensitivity (InfiniBand / 10GbE / WAN)",
        None,
    ),
    "ablation-stragglers": (
        experiments.ablation_straggler_sensitivity,
        "Ablation — straggler sensitivity (persistent slow worker)",
        None,
    ),
    "ablation-async": (
        experiments.ablation_async_admm,
        "Ablation — async Newton-ADMM / async SGD vs sync under a straggler",
        "objective",
    ),
    "ablation-faults": (
        experiments.ablation_faults,
        "Ablation — worker crash/restart: quorum async rides through, sync stalls or fails",
        None,
    ),
    "ablation-partitions": (
        experiments.ablation_partitions,
        "Ablation — a master↔worker link dies and heals: quorum async rides through the cut",
        None,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for Newton-ADMM (Fang et al., SC 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available experiments")
    sub.add_parser("datasets", help="describe the registered workloads")
    sub.add_parser("solvers", help="list the registered distributed solvers")
    sub.add_parser("backends", help="list array backends and their availability")
    sub.add_parser("engines", help="list execution engines and host parallelism")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        choices=sorted(EXPERIMENT_REGISTRY) + ["all"],
        help="experiment to run, or 'all' for the full evaluation section",
    )
    run.add_argument(
        "--scale",
        choices=[s.value for s in ExperimentScale],
        default=ExperimentScale.QUICK.value,
        help="reproduction scale (default: quick)",
    )
    run.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write rows/traces/report artifacts into",
    )
    run.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    run.add_argument(
        "--backend",
        choices=["numpy", "cupy", "torch", "auto"],
        default=None,
        help=(
            "array backend for all compute (default: numpy; 'auto' picks the "
            "best available accelerator and falls back to numpy)"
        ),
    )
    run.add_argument(
        "--engine",
        type=resolve_engine,
        choices=ENGINE_MODES,
        default=None,
        help=(
            "execution engine (default: event, the in-process discrete-event "
            "scheduler with per-worker busy/wait/comm timelines; 'process' "
            "runs each worker as a real OS process with measured wall-clock "
            "timelines on top of the same modelled accounting — see "
            "'python -m repro engines')"
        ),
    )
    run.add_argument(
        "--precision",
        choices=["fp64", "fp32", "mixed"],
        default=None,
        help=(
            "storage precision of every cluster the experiment builds "
            "(default 'mixed': fp32 shards under fp64 iterates, with "
            "log-sum-exp and CG reductions in fp64; 'fp64' is the reference "
            "path — see docs/performance.md for the convergence-tolerance "
            "contract)"
        ),
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject faults into every cluster the experiment builds: "
            "comma-separated 'W@TIME' crash specs plus an optional "
            "'restart=S' and network partitions 'part=W[+W2]@START-END' "
            "(e.g. '0@2.5,restart=1.0' or 'part=0@2.0-6.0'); "
            "see repro.distributed.faults.FailureModel.from_spec"
        ),
    )
    run.add_argument(
        "--no-plot",
        action="store_true",
        help="skip the ASCII rendering of time-series figures",
    )

    serve = sub.add_parser(
        "serve",
        help="start the model-serving HTTP app (registry + micro-batched "
        "predict + training jobs); see docs/serving.md",
    )
    serve.add_argument(
        "--root",
        type=Path,
        default=Path("model_registry"),
        help="model-registry directory (created if missing; default: ./model_registry)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8000, help="bind port (default 8000)")
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=8192,
        help="hard cap on stacked rows per scoring GEMM (default 8192)",
    )
    serve.add_argument(
        "--max-batch-requests",
        type=int,
        default=None,
        help="cap on requests per scoring GEMM (default: no cap)",
    )
    serve.add_argument(
        "--backend",
        choices=["numpy", "cupy", "torch", "auto"],
        default=None,
        help="array backend the scoring GEMMs run on (default numpy)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the repo's own static-contract lint "
        "(backend purity, determinism, fork safety, honest error handling; "
        "see docs/analysis.md)",
    )
    lint.add_argument(
        "--root",
        type=Path,
        default=None,
        help="scan root containing the repro/ package (default: the "
        "installed source tree)",
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON of accepted fingerprints (default: "
        "lint_baseline.json next to the scan root, if present)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to accept every current finding and exit 0",
    )
    lint.add_argument(
        "--json",
        type=Path,
        dest="json_out",
        default=None,
        metavar="REPORT",
        help="also write the structured report (findings + fingerprints) "
        "to this JSON file",
    )
    return parser


def _cmd_list(print_fn: Callable[[str], None]) -> int:
    rows = [
        {"experiment": name, "description": desc}
        for name, (_, desc, _) in sorted(EXPERIMENT_REGISTRY.items())
    ]
    print_fn(format_table(rows, title="Available experiments"))
    return 0


def _cmd_datasets(print_fn: Callable[[str], None]) -> int:
    rows = [
        {
            "name": spec.name,
            "stands in for": spec.paper_name,
            "classes": spec.n_classes,
            "features": spec.n_features,
            "default train": spec.default_train,
            "conditioning": spec.conditioning,
        }
        for spec in DATASET_REGISTRY.values()
    ]
    print_fn(format_table(rows, title="Registered workloads (see repro.datasets.registry)"))
    return 0


def _cmd_solvers(print_fn: Callable[[str], None]) -> int:
    rows = [
        {"name": name, "class": cls.__name__, "module": cls.__module__}
        for name, cls in sorted(SOLVER_REGISTRY.items())
    ]
    print_fn(format_table(rows, title="Registered distributed solvers"))
    return 0


def _collect_traces(result: dict) -> Dict[str, RunTrace]:
    traces = result.get("traces", {})
    flat: Dict[str, RunTrace] = {}
    if isinstance(traces, dict):
        for key, value in traces.items():
            if isinstance(value, RunTrace):
                flat[str(key)] = value
            elif isinstance(value, dict):
                for inner_key, inner in value.items():
                    if isinstance(inner, RunTrace):
                        flat[f"{key}/{inner_key}"] = inner
    return flat


def _cmd_backends(print_fn: Callable[[str], None]) -> int:
    from repro.backend import available_backends, default_backend, get_backend

    current = default_backend().name

    def fusion(name: str, ok: bool) -> str:
        if not ok:
            return "-"
        try:
            return get_backend(name).fusion_info().get("lse_probs", "composed")
        except Exception:
            return "-"

    rows = [
        {
            "name": name,
            "available": "yes" if ok else "no",
            "fused lse+probs": fusion(name, ok),
            "default": "*" if name == current else "",
        }
        for name, ok in sorted(available_backends().items())
    ]
    print_fn(format_table(rows, title="Array backends (select with run --backend)"))
    return 0


def _cmd_engines(print_fn: Callable[[str], None]) -> int:
    from repro.distributed.process_engine import process_engine_info
    from repro.harness.config import default_engine

    info = process_engine_info()
    current = default_engine()
    descriptions = {
        "event": "in-process, modelled time, per-worker timelines",
        "process": (
            f"real OS processes ({info['start_method']} start), measured "
            "wall-clock + modelled time"
        ),
    }
    rows = [
        {
            "engine": name,
            "execution": descriptions[name],
            "default": "*" if name == current else "",
        }
        for name in ENGINE_MODES
    ]
    print_fn(format_table(rows, title="Execution engines (select with run --engine)"))
    print_fn(
        f"host: {info['cpu_count']} usable CPU(s); "
        f"start method: {info['start_method']}; "
        f"shared-memory shard handoff: "
        f"{'yes' if info['shared_memory'] else 'no'}; "
        f"torch.distributed backend: {info['torch_distributed']}; "
        f"sync timeout: {info['sync_timeout']:.0f}s (REPRO_PROCESS_TIMEOUT)"
    )
    return 0


def _cmd_run(args, print_fn: Callable[[str], None]) -> int:
    if getattr(args, "backend", None):
        from repro.backend import BackendUnavailableError, set_default_backend

        try:
            backend = set_default_backend(args.backend)
        except BackendUnavailableError as exc:
            print_fn(f"error: {exc}")
            print_fn("hint: run 'python -m repro backends' to see what is available")
            return 2
        print_fn(f"using array backend: {backend.name}")
    if getattr(args, "engine", None):
        from repro.harness.config import set_default_engine

        print_fn(f"using execution engine: {set_default_engine(args.engine)}")
    if getattr(args, "precision", None):
        from repro.backend import set_default_precision

        try:
            set_default_precision(args.precision)
        except ValueError as exc:
            print_fn(f"error: {exc}")
            return 2
        print_fn(f"using precision mode: {args.precision}")
    if getattr(args, "faults", None):
        from repro.harness.config import set_default_faults

        try:
            set_default_faults(args.faults)
        except ValueError as exc:
            print_fn(f"error: {exc}")
            return 2
        print_fn(f"injecting faults: {args.faults}")
    names: List[str] = (
        sorted(EXPERIMENT_REGISTRY) if args.experiment == "all" else [args.experiment]
    )
    scale = ExperimentScale(args.scale)
    exit_code = 0
    for name in names:
        driver, description, plot_metric = EXPERIMENT_REGISTRY[name]
        print_fn(f"== {name}: {description} (scale={scale.value}) ==")
        try:
            result = driver(scale, seed=args.seed)
        except Exception as exc:
            from repro.distributed.faults import WorkerLostError

            if not isinstance(exc, WorkerLostError):
                raise
            # Injected faults + the default strict-sync 'raise' policy: report
            # the structured loss instead of a traceback.
            print_fn(f"aborted by injected fault: {exc}")
            exit_code = 1
            print_fn("")
            continue
        print_fn(str(result.get("report", "")))
        if plot_metric and not args.no_plot:
            traces = _collect_traces(result)
            if traces:
                print_fn(
                    plot_traces(
                        traces, y=plot_metric, title=f"{name}: {plot_metric} vs modelled time"
                    )
                )
        if args.out is not None:
            written = save_experiment_result(
                result, args.out, name=f"{name}_{scale.value}"
            )
            print_fn(f"wrote {len(written)} artifacts to {Path(args.out).resolve()}")
        print_fn("")
    return exit_code


def _cmd_serve(args, print_fn: Callable[[str], None]) -> int:
    if args.backend:
        from repro.backend import BackendUnavailableError, set_default_backend

        try:
            set_default_backend(args.backend)
        except BackendUnavailableError as exc:
            print_fn(f"error: {exc}")
            print_fn("hint: run 'python -m repro backends' to see what is available")
            return 2
    from repro.serving.app import run_server

    return run_server(
        args.root,
        host=args.host,
        port=args.port,
        backend=args.backend,
        max_batch_rows=args.max_batch_rows,
        max_batch_requests=args.max_batch_requests,
        print_fn=print_fn,
    )


def _cmd_lint(args, print_fn: Callable[[str], None]) -> int:
    import json

    import repro
    from repro.analysis.lint import run_lint, save_baseline

    root = args.root or Path(repro.__file__).resolve().parent.parent
    default_baseline = root.parent / "lint_baseline.json"
    if args.update_baseline:
        report = run_lint(root)
        target = args.baseline or default_baseline
        save_baseline(target, report.findings)
        print_fn(
            f"accepted {len(report.findings)} finding(s) into {target} "
            f"({len(report.suppressed)} already suppressed inline)"
        )
        return 0
    baseline = args.baseline
    if baseline is None and default_baseline.is_file():
        baseline = default_baseline
    report = run_lint(root, baseline=baseline)
    print_fn(report.render())
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(report.describe(), indent=2) + "\n")
        print_fn(f"wrote JSON report to {args.json_out}")
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None, *, print_fn: Callable[[str], None] = print) -> int:
    """Entry point used by ``python -m repro`` (returns the process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(print_fn)
    if args.command == "datasets":
        return _cmd_datasets(print_fn)
    if args.command == "solvers":
        return _cmd_solvers(print_fn)
    if args.command == "backends":
        return _cmd_backends(print_fn)
    if args.command == "engines":
        return _cmd_engines(print_fn)
    if args.command == "run":
        return _cmd_run(args, print_fn)
    if args.command == "serve":
        return _cmd_serve(args, print_fn)
    if args.command == "lint":
        return _cmd_lint(args, print_fn)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
