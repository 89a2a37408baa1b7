"""Tests for the fault-injection subsystem: the failure model and injector,
deterministic schedules, bit-identical no-fault behavior, the two sync
policies, quorum ride-through, Gantt failure markers, and the --faults CLI
plumbing."""

import math
import re

import numpy as np
import pytest

from repro.admm.async_newton_admm import AsyncNewtonADMM
from repro.admm.newton_admm import NewtonADMM
from repro.baselines.async_sgd import AsynchronousSGD
from repro.baselines.giant import GIANT
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.faults import FailureModel, WorkerLostError
from repro.distributed.schedule import RoundPlan
from repro.distributed.stragglers import StragglerModel
from repro.harness.plotting import plot_gantt
from repro.metrics.traces import time_to_objective
from repro.utils.rng import check_random_state


@pytest.fixture(scope="module")
def dataset():
    return make_multiclass_gaussian(240, 10, 3, class_separation=3.0, random_state=0)


@pytest.fixture(scope="module")
def nofault_trace(dataset):
    cluster = SimulatedCluster(dataset, 4, random_state=0)
    return NewtonADMM(lam=1e-3, max_epochs=6, record_accuracy=False).fit(cluster)


def _crash_time(nofault_trace, fraction=0.35):
    return fraction * nofault_trace.final.modelled_time


# ---------------------------------------------------------------------------
# FailureModel / FaultInjector
# ---------------------------------------------------------------------------
class TestFailureModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(crash_at_time={0: -1.0})
        with pytest.raises(ValueError):
            FailureModel(restart_after=0.0)
        with pytest.raises(ValueError):
            FailureModel(crash_at_time={-1: 1.0})

    def test_active_flag(self):
        assert not FailureModel().active
        assert FailureModel(crash_at_time={0: 1.0}).active
        # restart_after alone schedules nothing.
        assert not FailureModel(restart_after=1.0).active

    def test_from_spec_round_trip(self):
        model = FailureModel.from_spec("0@2.5,w1@3,restart=1.0")
        assert model.crash_at_time == {0: 2.5, 1: 3.0}
        assert model.restart_after == 1.0
        assert model == FailureModel.from_spec("w0@2.5, 1@3, restart=1")

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            FailureModel.from_spec("bogus")
        with pytest.raises(ValueError):
            FailureModel.from_spec("frequency=3")
        # Tokens of removed features (MTBF crashes, correlated groups,
        # checkpoint costs, seeded streams, round-scheduled crashes) fail
        # loudly, naming the token, rather than being silently ignored.
        for token in ("mtbf=1", "corr=0.5", "group=0+1", "ckpt=5", "seed=3",
                      "0@r2"):
            with pytest.raises(ValueError, match=re.escape(repr(token))):
                FailureModel.from_spec(token)

    def test_describe_is_json_safe(self):
        import json

        json.dumps(
            FailureModel(
                crash_at_time={0: 1.0}, restart_after=2.0,
                partitions=[((1,), 0.5, 1.5)],
            ).describe()
        )

    def test_intervals_and_restart(self):
        injector = FailureModel(crash_at_time={0: 2.0}, restart_after=1.5).start(2)
        assert not injector.is_down(0, 1.9)
        assert injector.is_down(0, 2.0)
        assert injector.is_down(0, 3.4)
        assert not injector.is_down(0, 3.5)
        assert injector.restart_time(0, 2.5) == 3.5
        assert injector.first_crash_in(0, 0.0, 10.0) == 2.0
        assert injector.first_crash_in(1, 0.0, 10.0) is None
        assert injector.crash_time_of(0, 3.0) == 2.0

    def test_no_restart_means_forever(self):
        injector = FailureModel(crash_at_time={0: 2.0}).start(1)
        assert injector.is_down(0, 1e9)
        assert math.isinf(injector.restart_time(0, 2.0))

    def test_worker_lost_error_is_structured(self):
        err = WorkerLostError(3, 1.25, round=7, reason="testing")
        assert err.worker_id == 3
        assert err.time == 1.25
        assert err.round == 7
        assert "worker 3" in str(err) and "testing" in str(err)


# ---------------------------------------------------------------------------
# Straggler draws compose with an attached failure model
# ---------------------------------------------------------------------------
class TestInjectionStreams:
    def test_straggler_draws_unchanged_by_refactor(self):
        # StragglerModel derives its generator with check_random_state, so
        # historical straggler schedules are unchanged.
        model = StragglerModel(probability=0.5, jitter=0.2, random_state=7)
        rng = check_random_state(7)
        expected = np.ones(4)
        expected *= rng.lognormal(mean=0.0, sigma=0.2, size=4)
        hit = rng.random(4) < 0.5
        expected[hit] *= 4.0
        np.testing.assert_allclose(model.sample_factors(4), expected)

    def test_straggler_and_failure_schedules_compose(self, dataset):
        # The straggler factors drawn in a run must not depend on whether a
        # FailureModel is attached.
        def run(faults):
            cluster = SimulatedCluster(
                dataset, 4,
                straggler=StragglerModel(jitter=0.3, random_state=5),
                faults=faults,
                random_state=0,
            )
            trace = NewtonADMM(lam=1e-3, max_epochs=3, record_accuracy=False).fit(cluster)
            return trace.final.modelled_time

        inactive = FailureModel(crash_at_time={0: 1e9})
        assert run(None) == run(inactive)


# ---------------------------------------------------------------------------
# Bit-identical no-fault behavior
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestInactiveModelIsInvisible:
    def test_sync_run_bit_identical(self, dataset):
        def run(faults):
            cluster = SimulatedCluster(dataset, 4, faults=faults, engine="event",
                                       random_state=0)
            return NewtonADMM(lam=1e-3, max_epochs=5, record_accuracy=False).fit(cluster)

        plain = run(None)
        attached = run(FailureModel(crash_at_time={0: 1e9}))
        assert np.array_equal(plain.final_w, attached.final_w)
        for a, b in zip(plain.records, attached.records):
            assert a.objective == b.objective
            assert a.modelled_time == b.modelled_time
            assert a.comm_time == b.comm_time
        assert "faults" not in attached.info  # no events => no fault record

    def test_async_run_bit_identical(self, dataset):
        def run(faults):
            cluster = SimulatedCluster(dataset, 4, faults=faults, random_state=0)
            return AsyncNewtonADMM(lam=1e-3, max_epochs=8, record_accuracy=False).fit(cluster)

        plain = run(None)
        attached = run(FailureModel(crash_at_time={0: 1e9}))
        assert np.array_equal(plain.final_w, attached.final_w)
        assert plain.final.modelled_time == attached.final.modelled_time

    def test_async_sgd_bit_identical(self, dataset):
        def run(faults):
            cluster = SimulatedCluster(dataset, 4, faults=faults, random_state=0)
            return AsynchronousSGD(lam=1e-3, max_epochs=2, random_state=0).fit(cluster)

        assert np.array_equal(
            run(None).final_w, run(FailureModel(crash_at_time={0: 1e9})).final_w
        )


# ---------------------------------------------------------------------------
# Sync policies
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestSyncPolicies:
    def test_raise_policy_aborts_with_structured_error(self, dataset, nofault_trace):
        crash = _crash_time(nofault_trace)
        cluster = SimulatedCluster(
            dataset, 4, faults=FailureModel(crash_at_time={1: crash}),
            engine="event", random_state=0,
        )
        with pytest.raises(WorkerLostError) as err:
            NewtonADMM(lam=1e-3, max_epochs=6, record_accuracy=False).fit(cluster)
        assert err.value.worker_id == 1
        assert err.value.time >= crash * 0.5

    def test_stall_policy_completes_identically_but_later(self, dataset, nofault_trace):
        crash = _crash_time(nofault_trace)
        downtime = 0.5 * nofault_trace.final.modelled_time
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(crash_at_time={1: crash}, restart_after=downtime),
            engine="event", random_state=0,
        )
        trace = NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
        ).fit(cluster)
        # Stalling changes no numerics — only modelled time.
        assert np.array_equal(trace.final_w, nofault_trace.final_w)
        assert trace.final.modelled_time > nofault_trace.final.modelled_time
        assert trace.final.modelled_time >= nofault_trace.final.modelled_time + 0.9 * downtime
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert kinds == ["crash", "restart"]

    def test_stall_without_restart_raises(self, dataset, nofault_trace):
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(crash_at_time={1: _crash_time(nofault_trace)}),
            random_state=0,
        )
        with pytest.raises(WorkerLostError, match="no scheduled restart"):
            NewtonADMM(
                lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
            ).fit(cluster)

    def test_giant_raises_too(self, dataset):
        probe = GIANT(lam=1e-3, max_epochs=4, record_accuracy=False).fit(
            SimulatedCluster(dataset, 4, random_state=0)
        )
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(crash_at_time={0: 0.5 * probe.final.modelled_time}),
            random_state=0,
        )
        with pytest.raises(WorkerLostError):
            GIANT(lam=1e-3, max_epochs=4, record_accuracy=False).fit(cluster)

    def test_invalid_policy_rejected(self):
        for policy in ("shrug", "degrade"):
            with pytest.raises(ValueError):
                NewtonADMM(on_failure=policy)
            with pytest.raises(ValueError):
                RoundPlan("p", on_failure=policy)

    def test_stall_charges_stall_category(self, dataset, nofault_trace):
        crash = _crash_time(nofault_trace)
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(crash_at_time={1: crash}, restart_after=crash),
            random_state=0,
        )
        NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
        ).fit(cluster)
        assert cluster.clock.category("stall") > 0.0


# ---------------------------------------------------------------------------
# Quorum ride-through (the acceptance criterion)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestQuorumRidesThrough:
    def test_async_completes_and_reaches_target_while_sync_raises(
        self, dataset, nofault_trace
    ):
        crash = _crash_time(nofault_trace)
        downtime = 0.5 * nofault_trace.final.modelled_time
        target = nofault_trace.final.objective

        def fault_model():
            return FailureModel(crash_at_time={1: crash}, restart_after=downtime)

        # Strict sync under the identical schedule: the barrier cannot form.
        with pytest.raises(WorkerLostError):
            NewtonADMM(lam=1e-3, max_epochs=6, record_accuracy=False).fit(
                SimulatedCluster(dataset, 4, faults=fault_model(),
                                 engine="event", random_state=0)
            )

        # Quorum async on the same schedule rides through to the target.
        asyn = AsyncNewtonADMM(
            lam=1e-3, max_epochs=30, quorum=3, max_staleness=10,
            record_accuracy=False,
        ).fit(
            SimulatedCluster(dataset, 4, faults=fault_model(),
                             engine="event", random_state=0)
        )
        assert asyn.final.objective <= target
        assert math.isfinite(time_to_objective(asyn, target))
        kinds = [e["kind"] for e in asyn.info["faults"]["events"]]
        assert kinds.count("crash") == 1 and kinds.count("restart") == 1

    def test_async_rides_through_permanent_loss(self, dataset, nofault_trace):
        trace = AsyncNewtonADMM(
            lam=1e-3, max_epochs=24, quorum=3, record_accuracy=False
        ).fit(
            SimulatedCluster(
                dataset, 4,
                faults=FailureModel(crash_at_time={1: _crash_time(nofault_trace)}),
                random_state=0,
            )
        )
        # Completes on the survivors and keeps optimizing their objective.
        assert np.isfinite(trace.final.objective)
        assert trace.final.objective < trace.records[0].objective
        assert trace.final.extras["alive_workers"] == 3.0

    def test_async_all_lost_raises(self, dataset, nofault_trace):
        crash = _crash_time(nofault_trace)
        with pytest.raises(WorkerLostError, match="no surviving workers"):
            AsyncNewtonADMM(lam=1e-3, max_epochs=24, record_accuracy=False).fit(
                SimulatedCluster(
                    dataset, 4,
                    faults=FailureModel(
                        crash_at_time={0: crash, 1: crash, 2: crash, 3: crash}
                    ),
                    random_state=0,
                )
            )

    def test_async_sgd_rides_through_crash_and_restart(self, dataset):
        probe = AsynchronousSGD(lam=1e-3, max_epochs=2, random_state=0).fit(
            SimulatedCluster(dataset, 4, random_state=0)
        )
        total = probe.final.modelled_time
        trace = AsynchronousSGD(lam=1e-3, max_epochs=2, random_state=0).fit(
            SimulatedCluster(
                dataset, 4,
                faults=FailureModel(
                    crash_at_time={0: 0.5 * total}, restart_after=0.2 * total
                ),
                random_state=0,
            )
        )
        assert np.isfinite(trace.final.objective)
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert kinds == ["crash", "restart"]
        assert trace.final.extras["alive_workers"] == 4.0


# ---------------------------------------------------------------------------
# Gantt rendering with failure markers
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestGanttFaultMarkers:
    @pytest.fixture(scope="class")
    def stalled_trace(self, dataset):
        probe = NewtonADMM(lam=1e-3, max_epochs=6, record_accuracy=False).fit(
            SimulatedCluster(dataset, 4, random_state=0)
        )
        crash = 0.35 * probe.final.modelled_time
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(crash_at_time={1: crash},
                                restart_after=probe.final.modelled_time),
            random_state=0,
        )
        return NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
        ).fit(cluster)

    def test_markers_and_downtime_fill(self, stalled_trace):
        art = plot_gantt(stalled_trace, width=60)
        assert "X" in art      # crash marker
        assert "^" in art      # restart marker
        assert "x" in art      # downtime fill
        assert "x down" in art  # legend mentions the new glyph

    def test_markers_on_the_crashed_workers_row(self, stalled_trace):
        art = plot_gantt(stalled_trace, width=60)
        rows = {
            line.split("|")[0].strip(): line
            for line in art.splitlines()
            if line.startswith("w")
        }
        assert "X" in rows["w1"] and "^" in rows["w1"]
        assert all("X" not in rows[f"w{i}"] for i in (0, 2, 3))

    def test_epoch_slices_keep_markers_in_their_window(self, stalled_trace):
        # Fault events are stamped on the global clock; the sliced view
        # remaps the ones inside the epoch window onto the sliced rows, so
        # the crash appears in exactly the epoch containing it (and in no
        # other epoch's view).
        boundaries = stalled_trace.info["timeline_epochs"]["boundaries"]
        crash = next(
            e for e in stalled_trace.info["faults"]["events"]
            if e["kind"] == "crash"
        )
        wid, t = int(crash["worker_id"]), float(crash["time"])
        marked = []
        for epoch in range(1, len(boundaries) + 1):
            art = plot_gantt(stalled_trace, epoch=epoch, width=60)
            row = next(
                line for line in art.splitlines()
                if line.startswith(f"w{wid}")
            )
            if "X" in row:
                marked.append(epoch)
        assert marked, "crash marker missing from every epoch slice"
        for epoch in marked:
            lo = 0.0 if epoch == 1 else boundaries[epoch - 2][wid]
            hi = boundaries[epoch - 1][wid]
            assert lo <= t <= hi

    def test_permanently_lost_worker_rendered_down_to_the_end(self, dataset):
        probe = AsyncNewtonADMM(lam=1e-3, max_epochs=6, record_accuracy=False).fit(
            SimulatedCluster(dataset, 4, random_state=0)
        )
        trace = AsyncNewtonADMM(
            lam=1e-3, max_epochs=12, quorum=3, record_accuracy=False
        ).fit(
            SimulatedCluster(
                dataset, 4,
                faults=FailureModel(
                    crash_at_time={2: 0.3 * probe.final.modelled_time}
                ),
                random_state=0,
            )
        )
        art = plot_gantt(trace, width=60)
        row = next(line for line in art.splitlines() if line.startswith("w2"))
        # Downtime extends to the end of the run.
        assert row.rstrip("|").endswith("x")

    def test_worker_lost_before_its_first_round_rendered_down(self, dataset):
        # Crashed at t = 0 and never restarted: its whole timeline is downtime
        # while the quorum of the other three keeps the run going.
        cluster = SimulatedCluster(
            dataset, 4, faults=FailureModel(crash_at_time={1: 0.0}), random_state=0
        )
        trace = AsyncNewtonADMM(
            lam=1e-3, max_epochs=6, quorum=3, record_accuracy=False
        ).fit(cluster)
        rows = trace.info["timelines"]
        down = {tl["worker_id"]: tl["down"] for tl in rows}
        assert down[1] == max(tl["total"] for tl in rows) > 0
        row = next(
            line for line in plot_gantt(trace, width=40).splitlines()
            if line.startswith("w1")
        )
        assert set(row[6:-1]) == {"x"}  # cell 0 holds the crash marker


# ---------------------------------------------------------------------------
# Harness plumbing
# ---------------------------------------------------------------------------
class TestHarnessFaults:
    def test_cluster_config_faults_spec_builds_model(self, dataset):
        from repro.harness.config import ClusterConfig
        from repro.harness.runner import build_cluster

        config = ClusterConfig(
            dataset="mnist_like", n_workers=2, n_train=300, n_test=60,
            faults="0@1.5,restart=1.0",
        )
        cluster, _ = build_cluster(config)
        assert cluster.faults is not None
        assert cluster.faults.crash_at_time == {0: 1.5}

    def test_session_default_faults(self):
        from repro.harness.config import default_faults, set_default_faults

        assert default_faults() is None
        try:
            set_default_faults("0@1.0")
            assert default_faults() == "0@1.0"
            with pytest.raises(ValueError):
                set_default_faults("garbage")
        finally:
            set_default_faults(None)

    def test_cli_rejects_bad_spec(self):
        from repro.harness.cli import main

        # Garbage and the tokens of removed features are rejected up front.
        for spec in ("nonsense", "mtbf=1", "corr=0.5", "group=0+1", "ckpt=5",
                     "seed=3", "0@r2"):
            lines = []
            code = main(
                ["run", "table1", "--faults", spec], print_fn=lines.append
            )
            assert code == 2, spec
            assert any("error" in line and spec in line for line in lines), spec

    def test_cluster_describe_serializes_faults(self, dataset):
        import json

        cluster = SimulatedCluster(
            dataset, 2, faults=FailureModel(crash_at_time={0: 1.0}),
            random_state=0,
        )
        json.dumps(cluster.describe())

    def test_reset_accounting_resets_fault_schedule(self, dataset, nofault_trace):
        crash = _crash_time(nofault_trace)
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(crash_at_time={1: crash}, restart_after=crash),
            random_state=0,
        )
        solver = NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
        )
        first = solver.fit(cluster)
        second = solver.fit(cluster)  # fit() resets accounting + fault state
        assert np.array_equal(first.final_w, second.final_w)
        assert first.final.modelled_time == second.final.modelled_time
        assert (
            [e["kind"] for e in first.info["faults"]["events"]]
            == [e["kind"] for e in second.info["faults"]["events"]]
        )
