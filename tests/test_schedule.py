"""Tests for the round-schedule IR: plan structure, declared-round checking,
golden-trace equivalence of every ported solver, per-epoch Gantt slicing, and
hyper-parameter provenance."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.baselines.aide import AIDE
from repro.baselines.dane import InexactDANE
from repro.baselines.giant import GIANT
from repro.baselines.sync_sgd import SynchronousSGD
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.schedule import (
    Collective,
    RoundPlan,
    ScheduleError,
    execute_plan,
)
from repro.harness.plotting import format_schedule, plot_gantt
from repro.metrics.timeline import slice_epoch
from repro.metrics.traces import RunTrace
from repro.objectives.softmax import TILE_BYTES, SoftmaxCrossEntropy

GOLDEN_PATH = Path(__file__).parent / "golden" / "schedule_equivalence.json"

#: solver name -> factory; mirrors tests/golden/generate_schedule_goldens.py
SOLVER_FACTORIES = {
    "newton_admm": lambda: NewtonADMM(lam=1e-3, max_epochs=4, record_accuracy=False),
    "giant": lambda: GIANT(lam=1e-3, max_epochs=4, record_accuracy=False),
    "inexact_dane": lambda: InexactDANE(lam=1e-3, max_epochs=2, record_accuracy=False),
    "aide": lambda: AIDE(lam=1e-3, max_epochs=2, tau=0.5, record_accuracy=False),
    "sync_sgd": lambda: SynchronousSGD(
        lam=1e-3, max_epochs=2, step_size=0.2, record_accuracy=False
    ),
}

#: declared communication rounds per outer iteration
DECLARED_ROUNDS = {
    "newton_admm": 1,
    "giant": 3,
    "inexact_dane": 2,
    "aide": 2,
    "sync_sgd": 1,  # one per mini-batch step; one step at this shard size
}


@pytest.fixture(scope="module")
def dataset():
    return make_multiclass_gaussian(240, 10, 3, class_separation=3.0, random_state=0)


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# IR structure
# ---------------------------------------------------------------------------
class TestRoundPlanStructure:
    def test_declared_rounds_count_opening_collectives(self):
        plan = RoundPlan("demo")
        plan.local("a", lambda w, ctx: 0.0)
        plan.allreduce("s", lambda ctx: ctx["a"])
        plan.reduce_scalar("r", lambda ctx: ctx["a"], joint_with_previous=True)
        plan.allreduce("t", lambda ctx: ctx["a"])
        assert plan.declared_rounds == 2
        assert plan.declared_collectives == 3

    def test_describe_is_serializable(self):
        plan = RoundPlan("demo")
        plan.local("a", lambda w, ctx: 0.0, label="work")
        plan.allreduce("s", lambda ctx: ctx["a"])
        plan.reduce_scalar("r", lambda ctx: ctx["a"], joint_with_previous=True)
        description = plan.describe()
        assert json.loads(json.dumps(description)) == {
            "plan": "demo",
            "rounds": 1,
            "collectives": 2,
            "local_steps": 1,
            "on_failure": "raise",
            "steps": [
                {"step": "local", "name": "a", "label": "work"},
                {"step": "collective", "name": "s", "op": "allreduce",
                 "joint_with_previous": False},
                {"step": "collective", "name": "r", "op": "reduce_scalar",
                 "joint_with_previous": True},
            ],
        }

    def test_repeat_multiplies_declared_counts_with_constant_description(self):
        def body(b):
            b.local("g", lambda w, ctx: 0.0)
            b.allreduce("s", lambda ctx: ctx["g"])

        small, large = RoundPlan("few"), RoundPlan("many")
        small.repeat(2, body)
        large.repeat(500, body)
        assert small.declared_rounds == 2
        assert large.declared_rounds == 500
        assert large.declared_collectives == 500
        # The recorded structure is one body + a count, not 500 copies.
        assert large.describe()["steps"] == [
            {
                "step": "repeat",
                "times": 500,
                "steps": small.describe()["steps"][0]["steps"],
            }
        ]

    def test_repeat_executes_body_times(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        plan = RoundPlan("looped", context={"total": 0.0})

        def body(b):
            b.local("g", lambda w, ctx: 1.0)
            b.allreduce("s", lambda ctx: ctx["g"])
            b.master(lambda ctx: ctx.__setitem__("total", ctx["total"] + ctx["s"]))

        plan.repeat(3, body)
        plan.returns("total")
        execution = execute_plan(cluster, plan)
        assert execution.rounds == 3
        assert execution.result == 3 * 4.0  # 3 rounds x 4 workers' ones

    def test_unknown_collective_op_rejected(self):
        with pytest.raises(ValueError):
            Collective("x", "alltoallv", lambda ctx: [])


class TestDeclaredRoundChecking:
    def test_hidden_communication_raises_schedule_error(self, dataset):
        # A plan whose master step smuggles an extra collective past the
        # declared structure must be rejected by the engine check.
        cluster = SimulatedCluster(dataset, 4, random_state=0)

        plan = RoundPlan("smuggler")
        plan.local("g", lambda w, ctx: np.zeros(cluster.dim))
        plan.allreduce("s", lambda ctx: ctx["g"])
        plan.master(
            lambda ctx: cluster.comm.allreduce(ctx["g"])  # undeclared round
        )
        with pytest.raises(ScheduleError, match="declares 1"):
            execute_plan(cluster, plan)

    def test_execution_summary(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        plan = RoundPlan("one-round")
        plan.local("g", lambda w, ctx: np.zeros(cluster.dim))
        plan.allreduce("s", lambda ctx: ctx["g"])
        plan.returns("s")
        execution = execute_plan(cluster, plan)
        assert execution.rounds == 1
        assert execution.collectives == 1
        assert execution.bytes_transferred > 0
        assert execution.summary() == {
            "rounds": 1,
            "collectives": 1,
            "bytes": execution.bytes_transferred,
        }
        assert np.array_equal(execution.result, np.zeros(cluster.dim))

    def test_reading_an_unbound_key_is_a_key_error(self, dataset):
        # The context is a plain dict: a step that reads a name no earlier
        # step bound fails at the read, not with a silent default.
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        plan = RoundPlan("read-before-write")
        plan.local("g", lambda w, ctx: np.zeros(cluster.dim))
        plan.master(lambda ctx: ctx["s"] * 2.0)
        plan.allreduce("s", lambda ctx: ctx["g"])
        with pytest.raises(KeyError, match="'s'"):
            execute_plan(cluster, plan)


# ---------------------------------------------------------------------------
# Golden-trace equivalence: the refactor changed no float
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestGoldenEquivalence:
    """Every ported solver replays the pre-refactor imperative path exactly:
    bit-identical iterates, identical modelled times and communication totals."""

    @pytest.mark.parametrize("name", sorted(SOLVER_FACTORIES))
    def test_matches_pre_refactor_golden(self, name, dataset, golden):
        cluster = SimulatedCluster(dataset, 4, engine="event", random_state=0)
        trace = SOLVER_FACTORIES[name]().fit(cluster)
        expected = golden[name]
        assert trace.final_w.tolist() == expected["final_w"]
        assert [r.objective for r in trace.records] == expected["objectives"]
        assert [r.modelled_time for r in trace.records] == expected["modelled_times"]
        assert [r.comm_time for r in trace.records] == expected["comm_times"]
        assert cluster.comm.log.n_rounds == expected["comm_rounds"]
        assert cluster.comm.log.n_collectives == expected["n_collectives"]
        assert cluster.comm.log.bytes_transferred == expected["bytes_transferred"]

    def test_golden_problems_fit_one_row_tile(self, dataset):
        """The goldens pin bits, and a design matrix spanning several row
        tiles sums its rows in another association: the training set and
        every worker's shard must stay one tile under the shipped constant."""
        shards = [w.shard for w in SimulatedCluster(dataset, 4, random_state=0).workers]
        for part in [dataset, *shards]:
            loss = SoftmaxCrossEntropy(part.X, part.y, dataset.n_classes)
            assert len(loss._tiles) == 1, (
                f"softmax.TILE_BYTES = {TILE_BYTES} splits a golden problem "
                f"({part.X.shape[0]}x{part.X.shape[1]}) into {len(loss._tiles)} row "
                "tiles; the golden mismatches that follow are reassociation, "
                "not a solver bug — keep golden problems single-tile"
            )

    @pytest.mark.parametrize("name", sorted(SOLVER_FACTORIES))
    def test_schedule_declares_expected_rounds(self, name, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        trace = SOLVER_FACTORIES[name]().fit(cluster)
        schedule = trace.info["schedule"]
        assert schedule["declared"]["rounds"] == DECLARED_ROUNDS[name]
        for epoch_row in schedule["epochs"]:
            assert epoch_row["rounds"] == DECLARED_ROUNDS[name]

    def test_schedule_info_serializable(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        trace = NewtonADMM(lam=1e-3, max_epochs=2, record_accuracy=False).fit(cluster)
        json.dumps(trace.info["schedule"])

    def test_format_schedule_renders_declared_structure(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        trace = NewtonADMM(lam=1e-3, max_epochs=3, record_accuracy=False).fit(cluster)
        art = format_schedule(trace)
        assert "1 communication round(s)/epoch" in art
        assert "allreduce(payload_sum)" in art
        assert "[joint]" in art
        assert "min 1 max 1" in art


# ---------------------------------------------------------------------------
# Per-epoch timeline deltas
# ---------------------------------------------------------------------------
class TestEpochGantt:
    @pytest.fixture(scope="class")
    def event_trace(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        return NewtonADMM(lam=1e-3, max_epochs=4, record_accuracy=False).fit(cluster)

    def test_boundaries_recorded_per_epoch(self, event_trace):
        boundaries = event_trace.info["timeline_epochs"]["boundaries"]
        assert len(boundaries) == 4  # one snapshot per executed epoch
        assert all(len(b) == 4 for b in boundaries)  # one clock per worker
        # Boundaries are non-decreasing per worker.
        for i in range(4):
            times = [b[i] for b in boundaries]
            assert times == sorted(times)

    def test_epoch_slices_partition_the_fit(self, event_trace):
        from repro.metrics.timeline import timelines_from_dicts

        timelines = timelines_from_dicts(event_trace.info["timelines"])
        boundaries = event_trace.info["timeline_epochs"]["boundaries"]
        for worker in range(4):
            total = sum(seg.duration for seg in timelines[worker].segments)
            sliced_total = 0.0
            for epoch in range(1, len(boundaries) + 1):
                cut = slice_epoch(timelines, boundaries, epoch)[worker]
                sliced_total += sum(seg.duration for seg in cut.segments)
            assert sliced_total == pytest.approx(total)

    def test_plot_gantt_accepts_trace_and_epoch(self, event_trace):
        full = plot_gantt(event_trace)
        single = plot_gantt(event_trace, epoch=2)
        assert "w0" in full and "w0" in single
        assert "epoch 2" in single
        # A single epoch spans strictly less time than the whole fit.
        span_full = float(full.splitlines()[0].split("..")[1].split("s")[0])
        span_epoch = float(
            single.splitlines()[1].split("..")[1].split("s")[0]
        )
        assert span_epoch < span_full

    def test_epoch_out_of_range_rejected(self, event_trace):
        with pytest.raises(ValueError):
            plot_gantt(event_trace, epoch=99)

    def test_epoch_needs_a_trace(self, event_trace):
        with pytest.raises(ValueError, match="RunTrace"):
            plot_gantt(event_trace.info["timelines"], epoch=1)

    def test_trace_without_timelines_rejected(self):
        with pytest.raises(ValueError, match="no recorded timelines"):
            plot_gantt(RunTrace("newton_admm", "none", 4))


# ---------------------------------------------------------------------------
# Hyper-parameter provenance (repr fallback instead of silent drop)
# ---------------------------------------------------------------------------
class TestHyperparameterProvenance:
    def test_none_and_scalars_pass_through(self):
        solver = NewtonADMM(lam=1e-3, rho0=None)
        params = solver.hyperparameters()
        assert params["rho0"] is None  # previously silently dropped
        assert params["lam"] == 1e-3
        assert params["penalty"] == "spectral"

    def test_non_scalars_serialized_via_repr(self, dataset):
        solver = SynchronousSGD(
            lam=1e-3, max_epochs=1, steps_per_epoch=None,
            random_state=np.random.default_rng(0),
        )
        params = solver.hyperparameters()
        assert params["steps_per_epoch"] is None
        assert isinstance(params["random_state"], str)  # repr fallback
        assert " at 0x" not in params["random_state"]  # address-free, stable
        json.dumps(params)

    def test_repr_fallback_is_deterministic_across_instances(self):
        a = SynchronousSGD(lam=1e-3, random_state=np.random.default_rng(0))
        b = SynchronousSGD(lam=1e-3, random_state=np.random.default_rng(0))
        assert a.hyperparameters() == b.hyperparameters()

    def test_run_state_logs_stay_out_of_provenance(self, dataset):
        # staleness_log is run state behind a read-only property; the repr
        # fallback must not sweep a previous run's log into the next trace.
        from repro.admm.async_newton_admm import AsyncNewtonADMM

        cluster = SimulatedCluster(dataset, 4, random_state=0)
        solver = AsyncNewtonADMM(lam=1e-3, max_epochs=3, record_accuracy=False)
        solver.fit(cluster)
        assert solver.staleness_log  # populated by the run...
        assert "staleness_log" not in solver.hyperparameters()  # ...not recorded
        cluster.reset_accounting()
        trace = solver.fit(cluster)
        assert "staleness_log" not in trace.info["hyperparameters"]

    def test_typoed_returns_key_fails_at_the_plan(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        plan = RoundPlan("typo")
        plan.local("g", lambda w, ctx: 0.0)
        plan.returns("gg")
        with pytest.raises(KeyError):
            execute_plan(cluster, plan)

    def test_trace_provenance_keeps_every_hyperparameter(self, dataset):
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        trace = GIANT(lam=1e-3, max_epochs=1, record_accuracy=False).fit(cluster)
        recorded = trace.info["hyperparameters"]
        public_attrs = {
            k for k in vars(GIANT(lam=1e-3)) if not k.startswith("_")
        }
        assert public_attrs <= set(recorded)
        json.dumps(recorded)
