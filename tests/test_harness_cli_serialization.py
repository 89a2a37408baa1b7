"""Tests for trace serialization, ASCII plotting, and the ``python -m repro`` CLI."""

import json
import math

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.baselines.giant import GIANT
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.harness.cli import EXPERIMENT_REGISTRY, build_parser, main
from repro.harness.plotting import ascii_line_plot, plot_scaling, plot_traces
from repro.harness.serialization import (
    load_rows_csv,
    load_trace,
    save_experiment_result,
    save_rows_csv,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)
from repro.metrics.traces import RunTrace


@pytest.fixture(scope="module")
def traces():
    dataset = make_multiclass_gaussian(
        n_samples=200, n_features=8, n_classes=3, random_state=0, name="serde"
    )
    out = {}
    for name, solver in (
        ("newton_admm", NewtonADMM(lam=1e-3, max_epochs=4)),
        ("giant", GIANT(lam=1e-3, max_epochs=4)),
    ):
        cluster = SimulatedCluster(dataset, 2, random_state=0)
        out[name] = solver.fit(cluster)
    return out


class TestTraceSerialization:
    def test_round_trip_preserves_records(self, traces):
        trace = traces["newton_admm"]
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored.method == trace.method
        assert restored.n_epochs == trace.n_epochs
        np.testing.assert_allclose(restored.objectives(), trace.objectives())
        np.testing.assert_allclose(
            restored.times("modelled"), trace.times("modelled")
        )

    def test_round_trip_handles_nan_and_inf(self):
        trace = RunTrace(method="m", dataset="d", n_workers=1)
        from repro.metrics.traces import EpochRecord

        trace.records.append(
            EpochRecord(epoch=1, objective=1.0, grad_norm=float("nan"),
                        train_accuracy=float("inf"))
        )
        restored = trace_from_dict(trace_to_dict(trace))
        assert math.isnan(restored.records[0].grad_norm)
        assert math.isinf(restored.records[0].train_accuracy)

    def test_serialized_dict_is_json_dumpable(self, traces):
        payload = trace_to_dict(traces["giant"], include_weights=True)
        text = json.dumps(payload)
        assert "giant" in text

    def test_save_and_load_trace_file(self, traces, tmp_path):
        path = save_trace(traces["newton_admm"], tmp_path / "sub" / "trace.json",
                          include_weights=True)
        restored = load_trace(path)
        assert restored.final.objective == pytest.approx(
            traces["newton_admm"].final.objective
        )
        np.testing.assert_allclose(restored.final_w, traces["newton_admm"].final_w)

    def test_rows_csv_round_trip(self, tmp_path):
        rows = [
            {"method": "newton_admm", "workers": 4, "time": 1.25},
            {"method": "giant", "workers": 4, "time": 2.5},
        ]
        path = save_rows_csv(rows, tmp_path / "rows.csv")
        restored = load_rows_csv(path)
        assert len(restored) == 2
        assert restored[0]["method"] == "newton_admm"
        assert float(restored[1]["time"]) == 2.5

    def test_save_experiment_result_writes_artifacts(self, traces, tmp_path):
        result = {
            "rows": [{"method": k, "objective": v.final.objective} for k, v in traces.items()],
            "report": "a report",
            "traces": traces,
        }
        written = save_experiment_result(result, tmp_path, name="demo")
        assert (tmp_path / "demo_rows.json").exists()
        assert (tmp_path / "demo_rows.csv").exists()
        assert (tmp_path / "demo_report.txt").read_text().startswith("a report")
        assert any(k.startswith("trace_") for k in written)

    def test_save_experiment_result_nested_traces(self, traces, tmp_path):
        result = {"rows": [], "traces": {"mnist_like": traces}}
        written = save_experiment_result(result, tmp_path, name="nested")
        assert any("mnist_like_newton_admm" in k for k in written)


class TestAsciiPlotting:
    def test_basic_plot_contains_markers_and_legend(self):
        x = np.linspace(1, 10, 20)
        out = ascii_line_plot(
            {"a": (x, x**2), "b": (x, x)}, title="demo", x_label="t", y_label="v"
        )
        assert "demo" in out
        assert "legend" in out
        assert "o a" in out and "x b" in out

    def test_log_scales_drop_nonpositive_values(self):
        out = ascii_line_plot(
            {"a": ([0.0, 1.0, 10.0], [1.0, 2.0, 3.0])}, log_x=True, log_y=True
        )
        assert "log x" in out and "log y" in out

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            ascii_line_plot({})

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ascii_line_plot({"a": ([1, 2], [1, 2, 3])})

    def test_tiny_canvas_rejected(self):
        with pytest.raises(ValueError):
            ascii_line_plot({"a": ([1], [1])}, width=5, height=2)

    def test_all_nonfinite_data_handled(self):
        out = ascii_line_plot({"a": ([float("nan")], [float("nan")])}, title="t")
        assert "no finite data" in out

    def test_plot_traces_shape(self, traces):
        out = plot_traces(traces, y="objective", title="figure-1 shape")
        assert "figure-1 shape" in out
        assert "newton_admm" in out and "giant" in out

    def test_plot_scaling_groups_by_method(self):
        rows = [
            {"method": "newton_admm", "workers": 1, "avg_epoch_time_ms": 4.0},
            {"method": "newton_admm", "workers": 8, "avg_epoch_time_ms": 1.0},
            {"method": "giant", "workers": 1, "avg_epoch_time_ms": 6.0},
            {"method": "giant", "workers": 8, "avg_epoch_time_ms": 2.0},
        ]
        out = plot_scaling(rows, title="epoch time")
        assert "epoch time" in out
        assert "newton_admm" in out


class TestCLI:
    def test_registry_covers_all_tables_and_figures(self):
        assert {"table1", "figure1", "figure2", "figure3", "figure4", "figure5"} <= set(
            EXPERIMENT_REGISTRY
        )

    def test_parser_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "figure99"])

    def test_list_command(self):
        lines = []
        assert main(["list"], print_fn=lines.append) == 0
        text = "\n".join(lines)
        assert "figure1" in text and "table1" in text

    def test_datasets_command(self):
        lines = []
        assert main(["datasets"], print_fn=lines.append) == 0
        assert "higgs_like" in "\n".join(lines)

    def test_solvers_command(self):
        lines = []
        assert main(["solvers"], print_fn=lines.append) == 0
        text = "\n".join(lines)
        assert "newton_admm" in text and "async_sgd" in text

    def test_engine_flag_sets_session_default(self):
        from repro.harness.config import default_engine, set_default_engine

        lines = []
        try:
            code = main(
                ["run", "table1", "--scale", "quick", "--engine", "event",
                 "--no-plot"],
                print_fn=lines.append,
            )
            assert code == 0
            assert any("using execution engine: event" in line for line in lines)
            assert default_engine() == "event"
        finally:
            set_default_engine("event")

    def test_engine_flag_rejects_unknown_mode(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "figure1", "--engine", "warp"])

    def test_run_table1_writes_artifacts(self, tmp_path):
        lines = []
        code = main(
            ["run", "table1", "--scale", "quick", "--out", str(tmp_path)],
            print_fn=lines.append,
        )
        assert code == 0
        assert (tmp_path / "table1_quick_rows.csv").exists()
        assert (tmp_path / "table1_quick_report.txt").exists()
        assert any("Table 1" in line for line in lines)

    @pytest.mark.slow
    def test_run_ablation_penalty_plots_traces(self, tmp_path):
        lines = []
        code = main(
            ["run", "ablation-penalty", "--out", str(tmp_path)],
            print_fn=lines.append,
        )
        assert code == 0
        text = "\n".join(lines)
        assert "legend" in text  # the ASCII plot was rendered
        assert any("trace" in p.name for p in tmp_path.iterdir())

    @pytest.mark.slow
    def test_run_no_plot_flag(self):
        lines = []
        code = main(["run", "ablation-penalty", "--no-plot"], print_fn=lines.append)
        assert code == 0
        assert "legend" not in "\n".join(lines)
