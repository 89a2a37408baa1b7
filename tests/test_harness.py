"""Tests for the experiment harness (configs, runner, per-figure experiments).

The experiment functions are exercised at QUICK scale with tiny overrides so
the whole module stays fast; the benchmark suite runs them at their default
sizes.
"""

import numpy as np
import pytest

# ``test_size_for`` is aliased so pytest does not collect it as a test.
from repro.harness.config import (
    ClusterConfig,
    ExperimentScale,
    SolverConfig,
    train_size_for,
)
from repro.harness.config import test_size_for as size_of_test_split
from repro.harness.experiments import (
    ablation_cg_budget,
    ablation_penalty_policies,
    figure1_second_order_comparison,
    figure2_epoch_times,
    figure3_speedup_ratios,
    figure4_first_order_comparison,
    figure5_e18_weak_scaling,
    table1_datasets,
)
from repro.harness.runner import (
    SOLVER_REGISTRY,
    build_cluster,
    make_solver,
    reference_optimum,
    resolve_device,
    resolve_network,
    run_method,
)
from repro.metrics.traces import RunTrace


class TestConfig:
    def test_scale_sizes_defined_for_all_datasets(self):
        for scale in ExperimentScale:
            for name in ("higgs_like", "mnist_like", "cifar_like", "e18_like"):
                assert train_size_for(name, scale) > 0
                assert size_of_test_split(name, scale) > 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            train_size_for("svhn", ExperimentScale.QUICK)

    def test_scales_ordered(self):
        quick = train_size_for("mnist_like", ExperimentScale.QUICK)
        small = train_size_for("mnist_like", ExperimentScale.SMALL)
        paper = train_size_for("mnist_like", ExperimentScale.PAPER)
        assert quick < small < paper

    def test_solver_config_label(self):
        assert SolverConfig("giant").label() == "giant"
        assert SolverConfig("giant", {"label": "g2"}).label() == "g2"


class TestRunner:
    def test_registry_contains_all_methods(self):
        assert set(SOLVER_REGISTRY) == {
            "newton_admm",
            "async_newton_admm",
            "giant",
            "inexact_dane",
            "aide",
            "sync_sgd",
            "async_sgd",
        }

    def test_make_solver(self):
        solver = make_solver(SolverConfig("newton_admm", {"lam": 1e-4, "max_epochs": 3}))
        assert solver.lam == 1e-4
        assert solver.max_epochs == 3

    def test_make_solver_unknown_rejected(self):
        with pytest.raises(KeyError):
            make_solver(SolverConfig("sdca"))

    def test_resolvers(self):
        assert resolve_network("ethernet_10g").name == "ethernet_10g"
        assert resolve_device("tesla_p100").name == "tesla_p100"
        with pytest.raises(KeyError):
            resolve_network("carrier_pigeon")
        with pytest.raises(KeyError):
            resolve_device("tpu_v9")

    def test_build_cluster(self):
        config = ClusterConfig(dataset="higgs_like", n_workers=2, n_train=400, n_test=80)
        cluster, test = build_cluster(config)
        assert cluster.n_workers == 2
        assert cluster.n_total == 400
        assert test.n_samples == 80

    def test_run_method_returns_trace_with_provenance(self):
        config = ClusterConfig(dataset="higgs_like", n_workers=2, n_train=400, n_test=80)
        trace = run_method(
            SolverConfig("newton_admm", {"lam": 1e-4, "max_epochs": 3}), config
        )
        assert isinstance(trace, RunTrace)
        assert trace.n_epochs == 3
        assert trace.info["solver_config"]["name"] == "newton_admm"
        assert trace.info["cluster_config"]["dataset"] == "higgs_like"

    def test_reference_optimum_has_small_gradient(self, small_multiclass_split):
        train, _ = small_multiclass_split
        w_star, f_star = reference_optimum(
            train, 1e-3, max_iterations=50, cg_max_iter=80, grad_tol=1e-8
        )
        from repro.objectives import (
            L2Regularizer,
            RegularizedObjective,
            SoftmaxCrossEntropy,
        )

        loss = SoftmaxCrossEntropy(train.X, train.y, train.n_classes)
        obj = RegularizedObjective(loss, L2Regularizer(loss.dim, 1e-3))
        assert np.linalg.norm(obj.gradient(w_star)) < 1e-5
        assert f_star == pytest.approx(obj.value(w_star))


class TestTable1:
    def test_rows_and_report(self):
        result = table1_datasets(ExperimentScale.QUICK)
        assert len(result["rows"]) == 4
        names = {r["dataset"] for r in result["rows"]}
        assert names == {"HIGGS", "MNIST", "CIFAR-10", "E18"}
        for row in result["rows"]:
            assert row["classes_paper"] == row["classes_repro"]
        assert "Table 1" in result["report"]

    def test_feature_counts_match_paper_except_e18(self):
        rows = {r["dataset"]: r for r in table1_datasets(ExperimentScale.QUICK)["rows"]}
        assert rows["MNIST"]["features_repro"] == rows["MNIST"]["features_paper"]
        assert rows["HIGGS"]["features_repro"] == rows["HIGGS"]["features_paper"]
        assert rows["E18"]["features_repro"] < rows["E18"]["features_paper"]


@pytest.mark.slow
class TestFigureExperiments:
    """Each figure driver is run on a deliberately tiny configuration."""

    def test_figure1_shapes(self):
        result = figure1_second_order_comparison(ExperimentScale.QUICK, n_workers=2)
        assert set(result["traces"]) == {"newton_admm", "giant", "inexact_dane", "aide"}
        assert len(result["rows"]) == 4
        assert "Figure 1" in result["report"]
        for trace in result["traces"].values():
            assert np.isfinite(trace.final.objective)

    def test_figure2_rows(self):
        result = figure2_epoch_times(
            ExperimentScale.QUICK,
            datasets=("higgs_like",),
            worker_counts=(1, 2),
        )
        # 1 dataset x 2 modes x 2 worker counts x 2 methods
        assert len(result["rows"]) == 8
        for row in result["rows"]:
            assert row["avg_epoch_time_ms"] > 0

    def test_figure3_rows(self):
        result = figure3_speedup_ratios(
            ExperimentScale.QUICK,
            strong_datasets=("higgs_like",),
            weak_datasets=(),
            worker_counts=(2,),
        )
        assert len(result["rows"]) == 1
        row = result["rows"][0]
        assert row["speedup_ratio"] >= 0 or np.isnan(row["speedup_ratio"])

    def test_figure4_rows(self):
        result = figure4_first_order_comparison(
            ExperimentScale.QUICK,
            datasets=("higgs_like",),
            sgd_step_sizes=(0.1,),
            admm_cg_iters=(10,),
        )
        assert len(result["rows"]) == 1
        assert "newton_admm" in result["traces"]["higgs_like"]
        assert "sync_sgd" in result["traces"]["higgs_like"]

    def test_figure5_rows(self):
        result = figure5_e18_weak_scaling(
            ExperimentScale.QUICK, n_workers=4, lams=(1e-3,)
        )
        assert len(result["rows"]) == 2  # 1 lambda x 2 methods
        assert all(np.isfinite(r["final_objective"]) for r in result["rows"])

    def test_ablation_penalty(self):
        result = ablation_penalty_policies(ExperimentScale.QUICK, n_workers=2)
        assert {r["penalty"] for r in result["rows"]} == {
            "spectral",
            "residual_balancing",
            "fixed",
        }

    def test_ablation_cg(self):
        result = ablation_cg_budget(
            ExperimentScale.QUICK, n_workers=2, cg_iters=(5, 20)
        )
        assert [r["cg_max_iter"] for r in result["rows"]] == [5, 20]
