"""Per-figure / per-table experiment drivers.

Every public function regenerates one table or figure of the paper's
evaluation section, plus ablations of the choices the paper fixes (penalty
policy, CG budget, over-relaxation, interconnect, stragglers, asynchrony,
faults, schedules).  Each returns a dictionary with structured
results (``rows`` and/or ``traces``) and a plain-text ``report`` mirroring
what the paper plots — the benchmark suite simply calls these functions and
prints the reports.

All functions accept an :class:`~repro.harness.config.ExperimentScale`; the
default ``QUICK`` scale finishes in seconds so the whole suite can run in CI,
while ``SMALL``/``PAPER`` scale the workloads up (``--scale`` on
``python -m repro run``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


from repro.datasets.registry import DATASET_REGISTRY, PAPER_TABLE1, load_dataset
from repro.harness.config import (
    ClusterConfig,
    ExperimentScale,
    SolverConfig,
    test_size_for,
    train_size_for,
)
from repro.harness.runner import build_cluster, reference_optimum, run_method
from repro.metrics.summary import format_table
from repro.metrics.traces import (
    RunTrace,
    average_epoch_time,
    speedup_ratio,
    time_to_objective,
    time_to_relative_objective,
)

#: paper-name mapping used in the reports
_PAPER_NAMES = {
    "higgs_like": "HIGGS",
    "mnist_like": "MNIST",
    "cifar_like": "CIFAR-10",
    "e18_like": "E18",
}

_ALL_DATASETS = ("higgs_like", "mnist_like", "cifar_like", "e18_like")


def _scale(scale) -> ExperimentScale:
    return ExperimentScale(scale)


def _epoch_budget(scale: ExperimentScale, quick: int, small: int, paper: int) -> int:
    return {
        ExperimentScale.QUICK: quick,
        ExperimentScale.SMALL: small,
        ExperimentScale.PAPER: paper,
    }[scale]


def _cluster_config(
    dataset: str,
    n_workers: int,
    scale: ExperimentScale,
    *,
    n_train: Optional[int] = None,
    seed: int = 0,
) -> ClusterConfig:
    return ClusterConfig(
        dataset=dataset,
        n_workers=n_workers,
        n_train=n_train if n_train is not None else train_size_for(dataset, scale),
        n_test=test_size_for(dataset, scale),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------
def table1_datasets(scale=ExperimentScale.QUICK, *, seed: int = 0) -> dict:
    """Table 1: description of the datasets (paper values vs. reproduction).

    The reproduction columns describe the synthetic stand-ins actually
    instantiated at the requested scale.
    """
    scale = _scale(scale)
    rows: List[dict] = []
    for name in _ALL_DATASETS:
        spec = DATASET_REGISTRY[name]
        paper_key = {"higgs_like": "higgs", "mnist_like": "mnist",
                     "cifar_like": "cifar10", "e18_like": "e18"}[name]
        paper = PAPER_TABLE1[paper_key]
        train, test = load_dataset(
            name,
            n_train=train_size_for(name, scale),
            n_test=test_size_for(name, scale),
            random_state=seed,
        )
        rows.append(
            {
                "dataset": _PAPER_NAMES[name],
                "classes_paper": paper["n_classes"],
                "classes_repro": train.n_classes,
                "samples_paper": paper["n_samples"],
                "samples_repro": train.n_samples + test.n_samples,
                "test_paper": paper["test_size"],
                "test_repro": test.n_samples,
                "features_paper": paper["n_features"],
                "features_repro": train.n_features,
                "conditioning": spec.conditioning,
            }
        )
    report = format_table(rows, title="Table 1 — datasets (paper vs. reproduction)")
    return {"rows": rows, "report": report}


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------
def figure1_second_order_comparison(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 4,
    lam: float = 1e-5,
    seed: int = 0,
) -> dict:
    """Figure 1: training objective vs. time for the second-order methods.

    Newton-ADMM and GIANT use identical shared hyper-parameters (10 CG
    iterations at 1e-4 tolerance, 10 line-search iterations), as the paper
    specifies for fairness; InexactDANE and AIDE run fewer outer epochs
    because their per-epoch cost is orders of magnitude higher.
    """
    scale = _scale(scale)
    newton_epochs = _epoch_budget(scale, 25, 60, 100)
    dane_epochs = _epoch_budget(scale, 3, 5, 10)
    cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
    cluster, test = build_cluster(cluster_config)

    shared = dict(lam=lam, cg_max_iter=10, cg_tol=1e-4, line_search_max_iter=10)
    solvers = [
        SolverConfig("newton_admm", {**shared, "max_epochs": newton_epochs}),
        SolverConfig("giant", {**shared, "max_epochs": newton_epochs}),
        SolverConfig(
            "inexact_dane",
            {"lam": lam, "max_epochs": dane_epochs, "eta": 1.0, "mu": 0.0},
        ),
        SolverConfig(
            "aide",
            {"lam": lam, "max_epochs": dane_epochs, "eta": 1.0, "mu": 0.0, "tau": 1.0},
        ),
    ]

    traces: Dict[str, RunTrace] = {}
    for solver_config in solvers:
        traces[solver_config.name] = run_method(
            solver_config, cluster_config, cluster=cluster, test=test
        )

    # Objective target used in the paper's narrative ("to reach an objective
    # value less than 0.25 on MNIST ..."); at reproduction scale we use the
    # best objective any method achieved plus 10%.
    best = min(t.best_objective() for t in traces.values())
    target = best * 1.10
    rows = []
    for name, trace in traces.items():
        rows.append(
            {
                "method": name,
                "epochs": trace.n_epochs,
                "final_objective": trace.final.objective,
                "best_objective": trace.best_objective(),
                "avg_epoch_time_s": average_epoch_time(trace),
                "time_to_target_s": time_to_objective(trace, target),
                "total_modelled_time_s": trace.total_time(),
            }
        )
    report = format_table(
        rows,
        title=(
            f"Figure 1 — second-order methods on {_PAPER_NAMES.get(dataset, dataset)} "
            f"(lambda={lam:g}, target objective {target:.4g})"
        ),
    )
    return {"rows": rows, "traces": traces, "target": target, "report": report}


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------
def figure2_epoch_times(
    scale=ExperimentScale.QUICK,
    *,
    datasets: Sequence[str] = _ALL_DATASETS,
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    lam: float = 1e-5,
    seed: int = 0,
) -> dict:
    """Figure 2: average epoch time under strong and weak scaling.

    Strong scaling keeps the training-set size fixed while workers increase;
    weak scaling keeps the per-worker sample count fixed.  Both Newton-ADMM
    and GIANT are run for a short, fixed number of epochs — the figure reports
    per-epoch cost, not convergence.
    """
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 3, 5, 10)
    max_workers = max(worker_counts)
    rows: List[dict] = []

    for dataset in datasets:
        strong_total = train_size_for(dataset, scale)
        per_worker = max(strong_total // max_workers, 50)
        for mode in ("strong", "weak"):
            for n_workers in worker_counts:
                n_train = strong_total if mode == "strong" else per_worker * n_workers
                cluster_config = _cluster_config(
                    dataset, n_workers, scale, n_train=n_train, seed=seed
                )
                cluster, test = build_cluster(cluster_config)
                for method in ("newton_admm", "giant"):
                    solver_config = SolverConfig(
                        method,
                        dict(lam=lam, max_epochs=epochs, cg_max_iter=10, cg_tol=1e-4,
                             line_search_max_iter=10, record_accuracy=False),
                    )
                    trace = run_method(
                        solver_config, cluster_config, cluster=cluster, test=test
                    )
                    rows.append(
                        {
                            "dataset": _PAPER_NAMES[dataset],
                            "scaling": mode,
                            "workers": n_workers,
                            "n_train": n_train,
                            "method": method,
                            "avg_epoch_time_ms": 1e3 * average_epoch_time(trace),
                            "compute_ms": 1e3 * trace.final.compute_time / trace.n_epochs,
                            "comm_ms": 1e3 * trace.final.comm_time / trace.n_epochs,
                        }
                    )
    report = format_table(
        rows, title="Figure 2 — average epoch time (ms), strong & weak scaling"
    )
    return {"rows": rows, "report": report}


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------
def figure3_speedup_ratios(
    scale=ExperimentScale.QUICK,
    *,
    strong_datasets: Sequence[str] = _ALL_DATASETS,
    weak_datasets: Sequence[str] = ("mnist_like", "cifar_like", "higgs_like"),
    worker_counts: Sequence[int] = (1, 2, 4, 8),
    lam: float = 1e-5,
    theta: float = 0.05,
    seed: int = 0,
) -> dict:
    """Figure 3: GIANT-over-Newton-ADMM speed-up ratio to relative objective theta.

    ``x*`` is obtained from a high-precision single-node Newton solve on the
    same training set, exactly as in the paper (and, like the paper, E18 is
    excluded from weak scaling because the weak-scaled set would be too large
    for the single-node reference).
    """
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 40, 80, 200)
    max_workers = max(worker_counts)
    rows: List[dict] = []
    f_star_cache: Dict[Tuple[str, int], float] = {}

    def get_f_star(dataset: str, n_train: int, seed: int) -> float:
        key = (dataset, n_train)
        if key not in f_star_cache:
            train, _ = load_dataset(
                dataset, n_train=n_train, n_test=test_size_for(dataset, scale),
                random_state=seed,
            )
            _, f_star = reference_optimum(
                train, lam, max_iterations=60, cg_max_iter=60, cg_tol=1e-8,
                grad_tol=1e-9,
            )
            f_star_cache[key] = f_star
        return f_star_cache[key]

    plans = [("strong", d) for d in strong_datasets] + [
        ("weak", d) for d in weak_datasets
    ]
    for mode, dataset in plans:
        strong_total = train_size_for(dataset, scale)
        per_worker = max(strong_total // max_workers, 50)
        for n_workers in worker_counts:
            n_train = strong_total if mode == "strong" else per_worker * n_workers
            f_star = get_f_star(dataset, n_train, seed)
            cluster_config = _cluster_config(
                dataset, n_workers, scale, n_train=n_train, seed=seed
            )
            cluster, test = build_cluster(cluster_config)
            traces: Dict[str, RunTrace] = {}
            for method in ("newton_admm", "giant"):
                solver_config = SolverConfig(
                    method,
                    dict(lam=lam, max_epochs=epochs, cg_max_iter=10, cg_tol=1e-4,
                         line_search_max_iter=10, record_accuracy=False),
                )
                traces[method] = run_method(
                    solver_config, cluster_config, cluster=cluster, test=test
                )
            ratio = speedup_ratio(traces["giant"], traces["newton_admm"], f_star, theta=theta)
            rows.append(
                {
                    "dataset": _PAPER_NAMES[dataset],
                    "scaling": mode,
                    "workers": n_workers,
                    "f_star": f_star,
                    "admm_time_s": time_to_relative_objective(
                        traces["newton_admm"], f_star, theta=theta
                    ),
                    "giant_time_s": time_to_relative_objective(
                        traces["giant"], f_star, theta=theta
                    ),
                    "speedup_ratio": ratio,
                }
            )
    report = format_table(
        rows,
        title=f"Figure 3 — speed-up ratio of Newton-ADMM over GIANT (theta={theta})",
    )
    return {"rows": rows, "report": report}


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------
def figure4_first_order_comparison(
    scale=ExperimentScale.QUICK,
    *,
    datasets: Sequence[str] = _ALL_DATASETS,
    lam: float = 1e-5,
    sgd_step_sizes: Sequence[float] = (1e-2, 1e-1, 1.0),
    admm_cg_iters: Sequence[int] = (10, 20, 30),
    seed: int = 0,
) -> dict:
    """Figure 4: Newton-ADMM vs synchronous SGD (objective & accuracy vs time).

    Following the paper: 8 workers (16 for E18), SGD batch size 128 with the
    best step size from a sweep, Newton-ADMM with the best CG budget from
    {10, 20, 30} at tolerance 1e-10.
    """
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 15, 50, 100)
    rows: List[dict] = []
    traces: Dict[str, Dict[str, RunTrace]] = {}

    for dataset in datasets:
        n_workers = 16 if dataset == "e18_like" else 8
        cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
        cluster, test = build_cluster(cluster_config)

        # --- Newton-ADMM: best CG budget -------------------------------------
        best_admm: Optional[RunTrace] = None
        for cg in admm_cg_iters:
            trace = run_method(
                SolverConfig(
                    "newton_admm",
                    dict(lam=lam, max_epochs=epochs, cg_max_iter=cg, cg_tol=1e-10),
                ),
                cluster_config,
                cluster=cluster,
                test=test,
            )
            if best_admm is None or trace.final.objective < best_admm.final.objective:
                best_admm = trace

        # --- synchronous SGD: best step size ----------------------------------
        best_sgd: Optional[RunTrace] = None
        for step in sgd_step_sizes:
            trace = run_method(
                SolverConfig(
                    "sync_sgd",
                    dict(lam=lam, max_epochs=epochs, step_size=step, batch_size=128),
                ),
                cluster_config,
                cluster=cluster,
                test=test,
            )
            if (
                best_sgd is None
                or trace.final.objective < best_sgd.final.objective
                or not math.isfinite(best_sgd.final.objective)
            ):
                if math.isfinite(trace.final.objective):
                    best_sgd = trace
        if best_sgd is None or best_admm is None:
            raise RuntimeError("figure4: no finite run found")

        traces[dataset] = {"newton_admm": best_admm, "sync_sgd": best_sgd}
        # Speed-up: time for SGD to reach its own final objective vs. time for
        # ADMM to reach the same value (the paper's headline 22.5x on HIGGS).
        sgd_final = best_sgd.final.objective
        admm_time = time_to_objective(best_admm, sgd_final)
        sgd_time = best_sgd.total_time()
        rows.append(
            {
                "dataset": _PAPER_NAMES[dataset],
                "workers": n_workers,
                "admm_final_obj": best_admm.final.objective,
                "sgd_final_obj": sgd_final,
                "admm_test_acc": best_admm.final.test_accuracy,
                "sgd_test_acc": best_sgd.final.test_accuracy,
                "admm_time_to_sgd_obj_s": admm_time,
                "sgd_total_time_s": sgd_time,
                "speedup_vs_sgd": (sgd_time / admm_time) if admm_time > 0 else float("inf"),
            }
        )
    report = format_table(
        rows, title="Figure 4 — Newton-ADMM vs synchronous SGD (modelled time)"
    )
    return {"rows": rows, "traces": traces, "report": report}


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------
def figure5_e18_weak_scaling(
    scale=ExperimentScale.QUICK,
    *,
    n_workers: int = 16,
    lams: Sequence[float] = (1e-3, 1e-5),
    seed: int = 0,
) -> dict:
    """Figure 5: weak scaling on the E18-like workload with 16 workers.

    Both solvers are run at both regularization strengths; the report gives
    average epoch times and final objectives (the paper's headline: ~1.87 s
    per epoch for Newton-ADMM vs 2.44 s for GIANT despite ~280k features).
    """
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 15, 40, 100)
    per_worker = max(train_size_for("e18_like", scale) // 8, 50)
    n_train = per_worker * n_workers
    rows: List[dict] = []
    traces: Dict[str, RunTrace] = {}

    for lam in lams:
        cluster_config = _cluster_config(
            "e18_like", n_workers, scale, n_train=n_train, seed=seed
        )
        cluster, test = build_cluster(cluster_config)
        for method in ("newton_admm", "giant"):
            trace = run_method(
                SolverConfig(
                    method,
                    dict(lam=lam, max_epochs=epochs, cg_max_iter=10, cg_tol=1e-4),
                ),
                cluster_config,
                cluster=cluster,
                test=test,
            )
            traces[f"{method}_lam{lam:g}"] = trace
            rows.append(
                {
                    "lambda": lam,
                    "method": method,
                    "workers": n_workers,
                    "n_train": n_train,
                    "avg_epoch_time_s": average_epoch_time(trace),
                    "final_objective": trace.final.objective,
                    "final_test_acc": trace.final.test_accuracy,
                }
            )
    report = format_table(
        rows, title="Figure 5 — E18-like weak scaling with 16 workers"
    )
    return {"rows": rows, "traces": traces, "report": report}


# ---------------------------------------------------------------------------
# Ablations (choices the paper fixes)
# ---------------------------------------------------------------------------
def ablation_penalty_policies(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 4,
    lam: float = 1e-5,
    seed: int = 0,
) -> dict:
    """Ablation: Spectral Penalty Selection vs residual balancing vs fixed rho."""
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 25, 60, 100)
    cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
    cluster, test = build_cluster(cluster_config)
    rows = []
    traces = {}
    for penalty in ("spectral", "residual_balancing", "fixed"):
        trace = run_method(
            SolverConfig(
                "newton_admm",
                dict(lam=lam, max_epochs=epochs, penalty=penalty, cg_max_iter=10),
            ),
            cluster_config,
            cluster=cluster,
            test=test,
        )
        traces[penalty] = trace
        rows.append(
            {
                "penalty": penalty,
                "final_objective": trace.final.objective,
                "best_objective": trace.best_objective(),
                "final_primal_residual": trace.final.extras.get("primal_residual"),
                "avg_epoch_time_s": average_epoch_time(trace),
            }
        )
    report = format_table(rows, title="Ablation — ADMM penalty policies")
    return {"rows": rows, "traces": traces, "report": report}


def ablation_cg_budget(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 4,
    lam: float = 1e-5,
    cg_iters: Sequence[int] = (5, 10, 20, 30),
    seed: int = 0,
) -> dict:
    """Ablation: inner CG budget of the local Newton solves (Fig. 4 caption sweep)."""
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 20, 50, 100)
    cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
    cluster, test = build_cluster(cluster_config)
    rows = []
    traces = {}
    for cg in cg_iters:
        trace = run_method(
            SolverConfig(
                "newton_admm",
                dict(lam=lam, max_epochs=epochs, cg_max_iter=cg, cg_tol=1e-10),
            ),
            cluster_config,
            cluster=cluster,
            test=test,
        )
        traces[cg] = trace
        rows.append(
            {
                "cg_max_iter": cg,
                "final_objective": trace.final.objective,
                "avg_epoch_time_s": average_epoch_time(trace),
                "total_time_s": trace.total_time(),
            }
        )
    report = format_table(rows, title="Ablation — CG budget per local Newton solve")
    return {"rows": rows, "traces": traces, "report": report}


def ablation_over_relaxation(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 4,
    lam: float = 1e-5,
    alphas: Sequence[float] = (1.0, 1.5, 1.8),
    seed: int = 0,
) -> dict:
    """Ablation: ADMM over-relaxation factor (alpha = 1 is the paper's setting)."""
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 25, 60, 100)
    cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
    cluster, test = build_cluster(cluster_config)
    rows = []
    traces = {}
    for alpha in alphas:
        trace = run_method(
            SolverConfig(
                "newton_admm",
                dict(lam=lam, max_epochs=epochs, over_relaxation=alpha, cg_max_iter=10),
            ),
            cluster_config,
            cluster=cluster,
            test=test,
        )
        traces[alpha] = trace
        rows.append(
            {
                "over_relaxation": alpha,
                "final_objective": trace.final.objective,
                "best_objective": trace.best_objective(),
                "final_primal_residual": trace.final.extras.get("primal_residual"),
                "final_dual_residual": trace.final.extras.get("dual_residual"),
            }
        )
    report = format_table(rows, title="Ablation — ADMM over-relaxation factor")
    return {"rows": rows, "traces": traces, "report": report}


def ablation_interconnect_sensitivity(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 8,
    lam: float = 1e-5,
    networks: Sequence[str] = ("infiniband_100g", "ethernet_10g", "wan_slow"),
    seed: int = 0,
) -> dict:
    """Ablation: interconnect sensitivity of Newton-ADMM vs GIANT.

    The paper argues that Newton-ADMM's single communication round per
    iteration (vs GIANT's three) matters little on 100 Gb/s InfiniBand but
    becomes decisive "in environments with low bandwidth and high latency".
    This sweep re-runs both methods on progressively slower interconnects and
    reports the epoch-time ratio.
    """
    scale = _scale(scale)
    epochs = _epoch_budget(scale, 3, 5, 10)
    rows: List[dict] = []
    for network in networks:
        cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
        cluster_config.network = network
        cluster, test = build_cluster(cluster_config)
        epoch_times = {}
        comm_times = {}
        for method in ("newton_admm", "giant"):
            trace = run_method(
                SolverConfig(
                    method,
                    dict(lam=lam, max_epochs=epochs, cg_max_iter=10, cg_tol=1e-4,
                         record_accuracy=False),
                ),
                cluster_config,
                cluster=cluster,
                test=test,
            )
            epoch_times[method] = average_epoch_time(trace)
            comm_times[method] = trace.final.comm_time / trace.n_epochs
        rows.append(
            {
                "network": network,
                "admm_epoch_s": epoch_times["newton_admm"],
                "giant_epoch_s": epoch_times["giant"],
                "admm_comm_s": comm_times["newton_admm"],
                "giant_comm_s": comm_times["giant"],
                "giant_over_admm": epoch_times["giant"] / epoch_times["newton_admm"],
            }
        )
    report = format_table(
        rows, title="Ablation — interconnect sensitivity (epoch time, ADMM vs GIANT)"
    )
    return {"rows": rows, "report": report}


def ablation_straggler_sensitivity(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 8,
    lam: float = 1e-5,
    slowdowns: Sequence[float] = (1.0, 4.0, 16.0),
    seed: int = 0,
) -> dict:
    """Ablation: effect of a persistent straggler node on epoch time.

    Both methods are synchronous, so a straggler inflates every epoch; the
    sweep quantifies by how much as the straggler's slowdown factor grows.
    """
    from repro.distributed.cluster import SimulatedCluster
    from repro.distributed.stragglers import StragglerModel
    from repro.datasets.registry import load_dataset as _load

    scale = _scale(scale)
    epochs = _epoch_budget(scale, 3, 5, 10)
    n_train = train_size_for(dataset, scale)
    n_test = test_size_for(dataset, scale)
    train, test = _load(dataset, n_train=n_train, n_test=n_test, random_state=seed)
    rows: List[dict] = []
    for slowdown in slowdowns:
        for method in ("newton_admm", "giant"):
            straggler = (
                None
                if slowdown <= 1.0
                else StragglerModel(slowdown=slowdown, persistent_stragglers=[0])
            )
            cluster = SimulatedCluster(
                train, n_workers, straggler=straggler, random_state=seed
            )
            cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
            trace = run_method(
                SolverConfig(
                    method,
                    dict(lam=lam, max_epochs=epochs, cg_max_iter=10,
                         record_accuracy=False),
                ),
                cluster_config,
                cluster=cluster,
                test=test,
            )
            rows.append(
                {
                    "slowdown": slowdown,
                    "method": method,
                    "avg_epoch_time_s": average_epoch_time(trace),
                    "compute_s": trace.final.compute_time / trace.n_epochs,
                    "comm_s": trace.final.comm_time / trace.n_epochs,
                }
            )
    report = format_table(
        rows, title="Ablation — straggler sensitivity (persistent slow worker 0)"
    )
    return {"rows": rows, "report": report}


def ablation_async_admm(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 8,
    lam: float = 1e-5,
    slowdown: float = 8.0,
    max_staleness: int = 10,
    seed: int = 0,
) -> dict:
    """Ablation: asynchronous execution under a persistent straggler.

    Synchronous Newton-ADMM pays the straggler's slowdown at every barrier;
    the event-driven variants do not.  The sweep runs sync Newton-ADMM,
    quorum-based async Newton-ADMM (quorum ``N - 1``, bounded staleness) and
    async parameter-server SGD on the same straggling cluster and reports the
    modelled time each needs to reach the *sync* run's final objective, plus
    the measured staleness of the asynchronous schedules.
    """
    from repro.datasets.registry import load_dataset as _load
    from repro.distributed.cluster import SimulatedCluster
    from repro.distributed.stragglers import StragglerModel

    scale = _scale(scale)
    sync_epochs = _epoch_budget(scale, 10, 25, 60)
    # One async "epoch" is a single z-update fed by ~quorum workers, versus a
    # full barrier over all N for sync, so the async run gets a larger budget;
    # the comparison below is on modelled *time*, not epochs.
    async_epochs = 4 * sync_epochs
    n_train = train_size_for(dataset, scale)
    n_test = test_size_for(dataset, scale)
    train, test = _load(dataset, n_train=n_train, n_test=n_test, random_state=seed)

    def make_cluster() -> SimulatedCluster:
        return SimulatedCluster(
            train,
            n_workers,
            straggler=StragglerModel(
                slowdown=slowdown, persistent_stragglers=[0], random_state=seed
            ),
            engine="event",
            random_state=seed,
        )

    cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
    shared = dict(lam=lam, cg_max_iter=10, cg_tol=1e-4, record_accuracy=False)
    solvers = [
        SolverConfig("newton_admm", {**shared, "max_epochs": sync_epochs}),
        SolverConfig(
            "async_newton_admm",
            {
                **shared,
                "max_epochs": async_epochs,
                "quorum": max(n_workers - 1, 1),
                "max_staleness": max_staleness,
            },
        ),
        SolverConfig(
            "async_sgd",
            dict(lam=lam, max_epochs=sync_epochs, step_size=0.1, batch_size=128,
                 record_accuracy=False),
        ),
    ]
    traces: Dict[str, RunTrace] = {}
    for solver_config in solvers:
        traces[solver_config.name] = run_method(
            solver_config, cluster_config, cluster=make_cluster(), test=test
        )

    target = traces["newton_admm"].final.objective
    rows = []
    for name, trace in traces.items():
        final = trace.final
        rows.append(
            {
                "method": name,
                "epochs": trace.n_epochs,
                "final_objective": final.objective,
                "total_modelled_time_s": trace.total_time(),
                "time_to_sync_objective_s": time_to_objective(trace, target),
                "comm_rounds": final.comm_rounds,
                "mean_staleness": final.extras.get(
                    "mean_staleness", final.extras.get("staleness", 0.0)
                ),
            }
        )
    report = format_table(
        rows,
        title=(
            f"Ablation — async execution under a persistent straggler "
            f"(slowdown {slowdown:g}x, worker 0, {n_workers} workers)"
        ),
    )
    return {"rows": rows, "traces": traces, "target": target, "report": report}


def _fault_policy_sweep(
    scale,
    *,
    dataset: str,
    n_workers: int,
    lam: float,
    seed: int,
    plan_fn,
    expected_error,
    nofault_policy: str,
    raise_outcome,
    stall_outcome: str,
    survived_message: str,
) -> dict:
    """Shared scaffolding of the fault-recovery ablations.

    Calibrates a no-fault synchronous Newton-ADMM run, asks ``plan_fn`` to
    turn its total modelled time into a fault schedule (``{"fault_model":
    () -> FailureModel, "title": str, ...}``), then replays the identical
    schedule through strict-sync ``raise`` (must abort with
    ``expected_error``), sync ``stall`` and quorum async Newton-ADMM on the
    event engine.  Returns the row table plus the raw pieces
    (``baseline``/``stalled``/``asyn`` traces, the async ``solver`` for fold
    accounting, ``base_time``, ``plan``) for driver-specific post-processing.
    """
    from repro.admm.async_newton_admm import AsyncNewtonADMM
    from repro.datasets.registry import load_dataset as _load
    from repro.distributed.cluster import SimulatedCluster

    scale = _scale(scale)
    sync_epochs = _epoch_budget(scale, 10, 25, 60)
    # One async "epoch" is one z-update fed by ~quorum workers; budget like
    # the async ablation so the comparison is on modelled time, not epochs.
    async_epochs = 4 * sync_epochs
    train, test = _load(
        dataset,
        n_train=train_size_for(dataset, scale),
        n_test=test_size_for(dataset, scale),
        random_state=seed,
    )

    def make_cluster(faults=None) -> "SimulatedCluster":
        return SimulatedCluster(
            train, n_workers, faults=faults, engine="event", random_state=seed
        )

    cluster_config = _cluster_config(dataset, n_workers, scale, seed=seed)
    shared = dict(lam=lam, cg_max_iter=10, cg_tol=1e-4, record_accuracy=False)

    # ---- calibration: the no-fault synchronous run -------------------------
    baseline = run_method(
        SolverConfig("newton_admm", {**shared, "max_epochs": sync_epochs}),
        cluster_config,
        cluster=make_cluster(),
        test=test,
    )
    base_time = baseline.total_time()
    target = baseline.final.objective
    base_t2t = time_to_objective(baseline, target)
    plan = plan_fn(base_time)
    fault_model = plan["fault_model"]

    traces: Dict[str, RunTrace] = {"newton_admm_nofault": baseline}
    rows: List[dict] = [
        {
            "method": "newton_admm",
            "policy": nofault_policy,
            "outcome": "completed",
            "final_objective": target,
            "total_modelled_time_s": base_time,
            "time_to_target_s": base_t2t,
            "modelled_delta_s": 0.0,
        }
    ]

    # ---- strict sync, policy 'raise': the run aborts -----------------------
    try:
        run_method(
            SolverConfig("newton_admm", {**shared, "max_epochs": sync_epochs}),
            cluster_config,
            cluster=make_cluster(fault_model()),
            test=test,
        )
        raise RuntimeError(survived_message)
    except expected_error as exc:
        rows.append(
            {
                "method": "newton_admm",
                "policy": "raise",
                "outcome": raise_outcome(exc),
                "final_objective": float("nan"),
                "total_modelled_time_s": float("nan"),
                "time_to_target_s": float("nan"),
                "modelled_delta_s": float("nan"),
            }
        )

    # ---- strict sync, policy 'stall': completes, paying the wait ------------
    stalled = run_method(
        SolverConfig(
            "newton_admm",
            {**shared, "max_epochs": sync_epochs, "on_failure": "stall"},
        ),
        cluster_config,
        cluster=make_cluster(fault_model()),
        test=test,
    )
    traces["newton_admm_stall"] = stalled
    stall_t2t = time_to_objective(stalled, target)
    rows.append(
        {
            "method": "newton_admm",
            "policy": "stall",
            "outcome": stall_outcome,
            "final_objective": stalled.final.objective,
            "total_modelled_time_s": stalled.total_time(),
            "time_to_target_s": stall_t2t,
            "modelled_delta_s": stall_t2t - base_t2t,
        }
    )

    # ---- quorum async: rides through ----------------------------------------
    async_kwargs = {
        **shared,
        "max_epochs": async_epochs,
        "quorum": max(n_workers - 1, 1),
        "max_staleness": 10,
    }
    solver = AsyncNewtonADMM(**async_kwargs)
    asyn = solver.fit(make_cluster(fault_model()), test=test)
    # The solver is instantiated directly (its fold/arrival accounting is
    # part of the result); stamp the provenance run_method would have.
    asyn.info["solver_config"] = {"name": "async_newton_admm", **async_kwargs}
    asyn.info["cluster_config"] = vars(cluster_config).copy()
    traces["async_newton_admm"] = asyn
    async_t2t = time_to_objective(asyn, target)
    rows.append(
        {
            "method": "async_newton_admm",
            "policy": "quorum (rides through)",
            "outcome": "completed",
            "final_objective": asyn.final.objective,
            "total_modelled_time_s": asyn.total_time(),
            "time_to_target_s": async_t2t,
            "modelled_delta_s": async_t2t - base_t2t,
        }
    )

    return {
        "rows": rows,
        "traces": traces,
        "target": target,
        "report": format_table(rows, title=plan["title"]),
        "base_time": base_time,
        "plan": plan,
        "solver": solver,
        "asyn": asyn,
    }


def ablation_faults(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 8,
    lam: float = 1e-5,
    crash_fraction: float = 0.35,
    downtime_fraction: float = 0.5,
    seed: int = 0,
) -> dict:
    """Ablation: worker loss mid-run — quorum async rides through, sync does not.

    A no-fault synchronous Newton-ADMM run calibrates the schedule: worker 0
    crashes ``crash_fraction`` of the way through its modelled time and stays
    down for ``downtime_fraction`` of it.  Under that *identical* fault
    schedule the sweep then runs strict-sync Newton-ADMM with its two
    declared policies — ``on_failure="raise"`` (the run aborts with a
    structured :class:`~repro.distributed.faults.WorkerLostError`) and
    ``on_failure="stall"`` (the cluster idles until the restart and pays the
    downtime at full price) — and quorum-based async Newton-ADMM (quorum
    ``N - 1``), which keeps firing z-updates off the survivors and folds the
    worker back in when it returns.  The report's ``modelled_delta_s`` column
    is the time-to-no-fault-target penalty each strategy pays for the same
    crash.
    """
    from repro.distributed.faults import FailureModel, WorkerLostError

    def plan_fn(base_time: float) -> dict:
        crash_time = crash_fraction * base_time
        restart_after = downtime_fraction * base_time
        return {
            "fault_model": lambda: FailureModel(
                crash_at_time={0: crash_time}, restart_after=restart_after
            ),
            "title": (
                f"Ablation — worker 0 crashes at t={crash_time:.3g}s, restarts "
                f"after {restart_after:.3g}s ({n_workers} workers, event engine)"
            ),
            "crash_time": crash_time,
            "restart_after": restart_after,
        }

    sweep = _fault_policy_sweep(
        scale,
        dataset=dataset,
        n_workers=n_workers,
        lam=lam,
        seed=seed,
        plan_fn=plan_fn,
        expected_error=WorkerLostError,
        nofault_policy="(no fault)",
        raise_outcome=lambda exc: (
            f"WorkerLostError: worker {exc.worker_id} at t={exc.time:.3g}s"
        ),
        stall_outcome="completed (stalled for restart)",
        survived_message=(
            "ablation-faults: strict-sync run survived an injected crash"
        ),
    )
    return {
        "rows": sweep["rows"],
        "traces": sweep["traces"],
        "target": sweep["target"],
        "crash_time": sweep["plan"]["crash_time"],
        "restart_after": sweep["plan"]["restart_after"],
        "report": sweep["report"],
    }


# ---------------------------------------------------------------------------
# Ablation: network partitions
# ---------------------------------------------------------------------------
def ablation_partitions(
    scale=ExperimentScale.QUICK,
    *,
    dataset: str = "mnist_like",
    n_workers: int = 8,
    lam: float = 1e-5,
    cut_fraction: float = 0.3,
    window_fraction: float = 0.5,
    seed: int = 0,
) -> dict:
    """Ablation: a master<->worker link dies and heals — quorum async rides it.

    A no-fault synchronous Newton-ADMM run calibrates the schedule: worker 0
    becomes *unreachable* (a :class:`~repro.distributed.faults.PartitionModel`
    cut — the node keeps computing, only its link is gone)
    ``cut_fraction`` of the way through the run, for ``window_fraction`` of
    it.  Under that identical partition the sweep runs strict-sync
    Newton-ADMM with ``on_failure="raise"`` (the barrier cannot form across
    the cut: structured :class:`~repro.distributed.faults.PartitionError`)
    and ``on_failure="stall"`` (the cluster idles until the heal, iterates
    bit-identical, only time lost), then quorum async Newton-ADMM (quorum
    ``N - 1``), which keeps firing z-updates off the reachable workers and
    folds the cut worker's delayed push back in — exactly once — when the
    partition heals.  Everything runs on the event engine so the cut
    worker's ``unreachable`` timeline segments are recorded.

    The returned ``rejoin`` block carries the fold accounting the benchmark
    asserts: per-fire fold lists are duplicate-free, every arrival is folded
    exactly once (``total_folds == total_arrivals``), and the cut worker is
    folded again at/after the heal.
    """
    from repro.distributed.faults import (
        FailureModel,
        PartitionError,
        PartitionModel,
    )

    def plan_fn(base_time: float) -> dict:
        cut_start = cut_fraction * base_time
        cut_end = cut_start + window_fraction * base_time
        return {
            "fault_model": lambda: FailureModel(
                partitions=PartitionModel(cuts=[((0,), cut_start, cut_end)])
            ),
            "title": (
                f"Ablation — worker 0 unreachable during "
                f"[{cut_start:.3g}s, {cut_end:.3g}s) ({n_workers} workers, "
                "event engine)"
            ),
            "cut_start": cut_start,
            "cut_end": cut_end,
        }

    sweep = _fault_policy_sweep(
        scale,
        dataset=dataset,
        n_workers=n_workers,
        lam=lam,
        seed=seed,
        plan_fn=plan_fn,
        expected_error=PartitionError,
        nofault_policy="(no partition)",
        raise_outcome=lambda exc: (
            f"PartitionError: worker {exc.worker_id} cut at t={exc.time:.3g}s"
        ),
        stall_outcome="completed (stalled until the heal)",
        survived_message=(
            "ablation-partitions: strict-sync run survived an open partition"
        ),
    )
    solver, asyn = sweep["solver"], sweep["asyn"]
    cut_start = sweep["plan"]["cut_start"]
    cut_end = sweep["plan"]["cut_end"]

    # ---- rejoin accounting: the healed worker folds exactly once ------------
    log = solver.staleness_log
    arrivals = solver.arrival_counts
    folds: Dict[int, int] = {}
    max_folds_per_fire = 0
    for entry in log:
        fired = entry["folded_workers"]
        max_folds_per_fire = max(
            max_folds_per_fire,
            max((fired.count(w) for w in set(fired)), default=0),
        )
        for w in fired:
            folds[w] = folds.get(w, 0) + 1
    post_heal_folds_of_cut_worker = sum(
        1 for entry in log if entry["time"] >= cut_end and 0 in entry["folded_workers"]
    )
    rejoin = {
        "cut_worker": 0,
        "cut_start": cut_start,
        "cut_end": cut_end,
        "total_arrivals": int(sum(arrivals.values())),
        "dropped_arrivals": int(solver.dropped_arrivals),
        "total_folds": int(sum(folds.values())),
        "max_folds_per_fire": int(max_folds_per_fire),
        "post_heal_folds_of_cut_worker": int(post_heal_folds_of_cut_worker),
        "partition_events": [
            dict(e) for e in asyn.info.get("faults", {}).get("events", [])
        ],
    }

    return {
        "rows": sweep["rows"],
        "traces": sweep["traces"],
        "target": sweep["target"],
        "cut_start": cut_start,
        "cut_end": cut_end,
        "rejoin": rejoin,
        "report": sweep["report"],
    }

