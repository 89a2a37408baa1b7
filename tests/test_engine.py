"""Tests for the discrete-event engine: timelines, barriers, the event queue,
engine names, and communication-round invariants."""

import numpy as np
import pytest

from repro.admm.newton_admm import NewtonADMM
from repro.baselines.dane import InexactDANE
from repro.baselines.giant import GIANT
from repro.baselines.sync_sgd import SynchronousSGD
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.engine import EventEngine
from repro.distributed.stragglers import StragglerModel
from repro.harness.cli import build_parser
from repro.harness.config import default_engine, set_default_engine
from repro.harness.plotting import plot_gantt
from repro.metrics.timeline import (
    TimelineSegment,
    WorkerTimeline,
    timeline_summary,
    timelines_from_dicts,
)


@pytest.fixture(scope="module")
def dataset():
    return make_multiclass_gaussian(240, 10, 3, class_separation=3.0, random_state=0)


class TestWorkerTimeline:
    def test_advance_appends_segments(self):
        tl = WorkerTimeline(0)
        tl.advance(1.0, "busy", "work")
        tl.advance(0.5, "comm", "push")
        assert tl.t == 1.5
        assert [s.kind for s in tl.segments] == ["busy", "comm"]
        assert tl.totals()["busy"] == 1.0
        assert tl.utilization() == pytest.approx(1.0 / 1.5)

    def test_zero_advance_records_nothing(self):
        tl = WorkerTimeline(0)
        tl.advance(0.0)
        assert tl.segments == []

    def test_wait_until_past_is_noop(self):
        tl = WorkerTimeline(0)
        tl.advance(2.0)
        tl.wait_until(1.0)
        assert tl.t == 2.0 and len(tl.segments) == 1

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            WorkerTimeline(0).advance(-1.0)
        with pytest.raises(ValueError):
            TimelineSegment(1.0, 0.5, "busy")
        with pytest.raises(ValueError):
            TimelineSegment(0.0, 1.0, "sleeping")

    def test_roundtrip_through_dicts(self):
        tl = WorkerTimeline(3)
        tl.advance(1.0, "busy")
        tl.wait_until(1.5, "barrier")
        tl.advance(0.25, "comm", "allreduce")
        row = tl.to_dict()
        assert row == {
            "worker_id": 3,
            "total": 1.75,
            "busy": 1.0,
            "wait": 0.5,
            "comm": 0.25,
            "down": 0.0,
            "unreachable": 0.0,
            "segments": [
                {"start": 0.0, "end": 1.0, "kind": "busy", "label": ""},
                {"start": 1.0, "end": 1.5, "kind": "wait", "label": "barrier"},
                {"start": 1.5, "end": 1.75, "kind": "comm", "label": "allreduce"},
            ],
        }
        (back,) = timelines_from_dicts([row])
        assert back.worker_id == 3
        assert back.t == tl.t
        assert back.to_dict() == row

    def test_summary_rows(self):
        tl = WorkerTimeline(0)
        tl.advance(1.0, "busy")
        (row,) = timeline_summary([tl])
        assert row["worker_id"] == 0
        assert row["busy"] == 1.0
        assert row["utilization"] == 1.0


class TestEventEngine:
    def test_barrier_waits_fast_workers(self):
        engine = EventEngine(3)
        engine.compute(0, 1.0)
        engine.compute(1, 4.0)
        t = engine.barrier()
        assert t == 4.0
        assert all(tl.t == 4.0 for tl in engine.timelines)
        # Fast workers got wait segments; the slow one did not.
        assert engine.timelines[0].totals()["wait"] == 3.0
        assert engine.timelines[1].totals()["wait"] == 0.0
        assert engine.timelines[2].totals()["wait"] == 4.0

    def test_run_round_charges_clock_max(self):
        engine = EventEngine(2)
        engine.run_round({0: 1.0, 1: 3.0})
        assert engine.now == 3.0
        assert engine.clock.category("compute") == 3.0

    def test_collective_charges_everyone(self):
        engine = EventEngine(2)
        engine.run_round({0: 1.0, 1: 2.0})
        engine.collective(0.5)
        assert engine.now == 2.5
        assert engine.clock.category("communication") == 0.5
        assert all(tl.totals()["comm"] == 0.5 for tl in engine.timelines)

    def test_event_queue_orders_by_time_then_post_order(self):
        engine = EventEngine(3)
        engine.post(2, 1.0, "late")
        engine.post(0, 0.5, "early")
        engine.post(1, 0.5, "tie")  # same time as "early", posted later
        assert engine.pop().payload == "early"
        assert engine.pop().payload == "tie"
        assert engine.pop().payload == "late"
        with pytest.raises(RuntimeError):
            engine.pop()

    def test_post_does_not_advance_worker(self):
        engine = EventEngine(2)
        engine.compute(0, 1.0)
        event = engine.post(0, 0.25)
        assert event.time == 1.25
        assert engine.time_of(0) == 1.0

    def test_advance_global_to_splits_categories(self):
        engine = EventEngine(1)
        engine.advance_global_to(10.0, comm_seconds=4.0)
        assert engine.now == 10.0
        assert engine.clock.category("compute") == 6.0
        assert engine.clock.category("communication") == 4.0
        # Going backwards is a no-op.
        engine.advance_global_to(5.0)
        assert engine.now == 10.0

    def test_reset(self):
        engine = EventEngine(2)
        engine.run_round({0: 1.0, 1: 1.0})
        engine.post(0, 1.0)
        engine.reset()
        assert engine.n_pending == 0
        assert all(not tl.segments for tl in engine.timelines)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventEngine(0)
        engine = EventEngine(2)
        with pytest.raises(ValueError):
            engine.compute(5, 1.0)
        with pytest.raises(ValueError):
            engine.post(0, -1.0)
        with pytest.raises(ValueError):
            engine.barrier([])


def _fit(solver_factory, dataset, *, straggler=None):
    strag = StragglerModel(**straggler) if straggler is not None else None
    cluster = SimulatedCluster(dataset, 4, straggler=strag, random_state=0)
    return solver_factory().fit(cluster)


class TestEngineEquivalence:
    """``"lockstep"``, a former in-process engine that benchmark specs still
    name, is an alias of the event engine; two fits in one process on the
    event engine are bit-identical in iterates and modelled clock/rounds."""

    def test_lockstep_is_an_alias_of_event(self, dataset):
        cluster = SimulatedCluster(dataset, 2, engine="lockstep", random_state=0)
        assert cluster.engine_mode == cluster.describe()["engine"] == "event"
        previous = default_engine()
        try:
            assert set_default_engine("lockstep") == default_engine() == "event"
        finally:
            set_default_engine(previous)
        args = build_parser().parse_args(["run", "table1", "--engine", "lockstep"])
        assert args.engine == "event"
        with pytest.raises(ValueError, match="engine must be one of"):
            SimulatedCluster(dataset, 2, engine="warp")

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NewtonADMM(lam=1e-3, max_epochs=6),
            lambda: GIANT(lam=1e-3, max_epochs=6),
            lambda: SynchronousSGD(lam=1e-3, max_epochs=3, step_size=0.2),
            lambda: InexactDANE(lam=1e-3, max_epochs=2),
        ],
        ids=["newton_admm", "giant", "sync_sgd", "inexact_dane"],
    )
    def test_two_fits_in_one_process_are_bit_identical(self, factory, dataset):
        first = _fit(factory, dataset)
        second = _fit(factory, dataset)
        assert np.array_equal(first.final_w, second.final_w)
        assert len(first.records) == len(second.records)
        for a, b in zip(first.records, second.records):
            assert a.objective == b.objective
            assert a.modelled_time == b.modelled_time
            assert a.compute_time == b.compute_time
            assert a.comm_time == b.comm_time
            assert a.comm_rounds == b.comm_rounds

    def test_two_fits_under_stragglers_are_bit_identical(self, dataset):
        def make():
            return NewtonADMM(lam=1e-3, max_epochs=4)

        straggler = dict(slowdown=6.0, persistent_stragglers=[1], jitter=0.1)
        first = _fit(make, dataset, straggler=straggler)
        second = _fit(make, dataset, straggler=straggler)
        assert np.array_equal(first.final_w, second.final_w)
        assert first.final.modelled_time == second.final.modelled_time

    def test_event_mode_records_timelines(self, dataset):
        event = _fit(lambda: NewtonADMM(lam=1e-3, max_epochs=3), dataset)
        timelines = event.info["timelines"]
        assert len(timelines) == 4
        assert all(tl["total"] > 0 for tl in timelines)
        summary = event.info["timeline_summary"]
        assert all(0 < row["utilization"] <= 1.0 for row in summary)

    def test_straggler_peers_wait_in_timelines(self, dataset):
        event = _fit(
            lambda: NewtonADMM(lam=1e-3, max_epochs=3),
            dataset,
            straggler=dict(slowdown=10.0, persistent_stragglers=[0]),
        )
        by_id = {tl["worker_id"]: tl for tl in event.info["timelines"]}
        # The straggler barely waits; its peers wait out its slow rounds.
        assert by_id[0]["wait"] < by_id[1]["wait"]
        assert by_id[1]["wait"] > by_id[1]["busy"]


class TestCommunicationRoundInvariants:
    """The paper's systems claim: Newton-ADMM synchronizes once per
    iteration, GIANT three times."""

    def test_newton_admm_one_round_per_iteration(self, dataset):
        epochs = 7
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        trace = NewtonADMM(lam=1e-3, max_epochs=epochs).fit(cluster)
        assert cluster.comm.log.n_rounds == epochs
        assert trace.final.comm_rounds == epochs

    def test_giant_three_rounds_per_iteration(self, dataset):
        epochs = 7
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        trace = GIANT(lam=1e-3, max_epochs=epochs).fit(cluster)
        assert cluster.comm.log.n_rounds == 3 * epochs
        assert trace.final.comm_rounds == 3 * epochs


class TestStragglerKeying:
    def test_factors_for_full_cluster_matches_sample_factors(self):
        a = StragglerModel(probability=0.5, jitter=0.2, random_state=7)
        b = StragglerModel(probability=0.5, jitter=0.2, random_state=7)
        np.testing.assert_allclose(
            a.factors_for(range(4), 4), b.sample_factors(4)
        )

    def test_factors_for_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            StragglerModel().factors_for([4], 4)

    def test_factors_for_records_only_applied_factors(self):
        # Async schedules query one worker per cycle; the history must hold
        # the delivered factors, not a full phantom round per query — and a
        # subset query counts as a *draw*, not a synchronization round.
        model = StragglerModel(slowdown=4.0, persistent_stragglers=[0])
        for _ in range(5):
            model.factors_for([1], 4)
        summary = model.summary()
        assert summary["rounds"] == 0
        assert summary["draws"] == 5
        assert summary["max_factor"] == pytest.approx(1.0)  # worker 1 never slowed
        # Mixed-size history (subset + full rounds) still summarizes.
        model.sample_factors(4)
        assert model.summary()["max_factor"] == pytest.approx(4.0)
        assert model.summary()["rounds"] == 1
        assert model.summary()["draws"] == 6

    def test_round_accounting_on_async_trace(self):
        # The bug this pins: async runs (one factors_for query per worker
        # cycle) used to report wildly inflated summary()["rounds"] relative
        # to the synchronization rounds that actually happened.  Rounds now
        # count only full-membership queries; per-cycle draws land in
        # "draws".
        from repro.admm.async_newton_admm import AsyncNewtonADMM
        from repro.datasets.synthetic import make_multiclass_gaussian

        ds = make_multiclass_gaussian(
            240, 10, 3, class_separation=3.0, random_state=0
        )
        model = StragglerModel(jitter=0.2, random_state=5)
        cluster = SimulatedCluster(ds, 4, straggler=model, random_state=0)
        AsyncNewtonADMM(
            lam=1e-3, max_epochs=6, quorum=3, record_accuracy=False
        ).fit(cluster)
        summary = model.summary()
        assert summary["rounds"] == 0           # no full barrier ever formed
        assert summary["draws"] > 6             # one per worker cycle
        assert model.n_draws == summary["draws"]


class TestGanttExport:
    def test_plot_from_timelines_and_dicts(self):
        engine = EventEngine(2)
        engine.run_round({0: 1.0, 1: 3.0})
        engine.collective(0.5)
        art = plot_gantt(engine.timelines, width=24, title="round")
        assert "round" in art and "w0" in art and "w1" in art
        assert "#" in art and "~" in art and "." in art
        # Re-render from the serialized form used in traces.
        rows = [tl.to_dict() for tl in engine.timelines]
        assert plot_gantt(rows, width=24).count("|") >= 4

    def test_empty_timelines_rejected(self):
        with pytest.raises(ValueError):
            plot_gantt([])
