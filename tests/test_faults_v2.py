"""Fault model v2 tests: network partitions (link loss distinct from node
loss), correlated failure groups, checkpoint-cost restarts, the extended
``--faults`` spec grammar (duplicate/garbled-token diagnostics and the
spec→describe roundtrip), and the Gantt partition markers."""

import json
import math

import numpy as np
import pytest

from repro.admm.async_newton_admm import AsyncNewtonADMM
from repro.admm.newton_admm import NewtonADMM
from repro.baselines.async_sgd import AsynchronousSGD
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.engine import EventEngine
from repro.distributed.faults import (
    CheckpointModel,
    FailureModel,
    PartitionError,
    PartitionModel,
    WorkerLostError,
)
from repro.harness.plotting import plot_gantt
from repro.metrics.traces import time_to_objective


@pytest.fixture(scope="module")
def dataset():
    return make_multiclass_gaussian(240, 10, 3, class_separation=3.0, random_state=0)


@pytest.fixture(scope="module")
def nofault_trace(dataset):
    cluster = SimulatedCluster(dataset, 4, random_state=0)
    return NewtonADMM(lam=1e-3, max_epochs=6, record_accuracy=False).fit(cluster)


def _window(nofault_trace, start=0.35, length=0.5):
    total = nofault_trace.final.modelled_time
    return start * total, (start + length) * total


def _partition_faults(nofault_trace, worker=1, **kwargs):
    lo, hi = _window(nofault_trace, **kwargs)
    return FailureModel(partitions=PartitionModel(cuts=[((worker,), lo, hi)]))


# ---------------------------------------------------------------------------
# PartitionModel / CheckpointModel units
# ---------------------------------------------------------------------------
class TestPartitionModel:
    def test_windows_and_heal(self):
        model = PartitionModel(cuts=[((0, 2), 2.0, 5.0)])
        assert model.is_cut(0, 2.0) and model.is_cut(2, 4.9)
        assert not model.is_cut(0, 1.9) and not model.is_cut(0, 5.0)
        assert not model.is_cut(1, 3.0)
        assert model.heal_time(0, 3.0) == 5.0
        assert model.heal_time(1, 3.0) == 3.0  # not cut: unchanged
        assert model.cut_start(2, 4.0) == 2.0

    def test_chained_windows_heal_at_the_gap(self):
        model = PartitionModel(cuts=[((0,), 1.0, 3.0), ((0,), 2.5, 6.0)])
        assert model.heal_time(0, 1.5) == 6.0

    def test_disjoint_windows_record_separate_events(self):
        # A second cut on the same worker is its own partition/heal pair,
        # even when no synchronization point lands in the gap between them.
        inj = FailureModel(
            partitions=PartitionModel(cuts=[((0,), 2.0, 4.0), ((0,), 6.0, 8.0)])
        ).start(2)
        engine = EventEngine(2)
        inj.note_partition(0, 2.0)
        assert inj.rejoin_healed(7.0, engine) == [0]  # window 1 healed at 4.0
        inj.note_partition(0, 6.0)
        inj.rejoin_healed(9.0, engine)
        assert [(e["kind"], e["time"]) for e in inj.events] == [
            ("partition", 2.0), ("heal", 4.0),
            ("partition", 6.0), ("heal", 8.0),
        ]

    def test_never_healing_window(self):
        model = PartitionModel(cuts=[((0,), 1.0, float("inf"))])
        assert model.is_cut(0, 1e12)
        assert math.isinf(model.heal_time(0, 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionModel(cuts=[((), 0.0, 1.0)])
        with pytest.raises(ValueError):
            PartitionModel(cuts=[((-1,), 0.0, 1.0)])
        with pytest.raises(ValueError):
            PartitionModel(cuts=[((0,), 2.0, 2.0)])
        with pytest.raises(ValueError):
            PartitionModel(cuts=[((0,), -1.0, 2.0)])

    def test_active_flag_feeds_failure_model(self):
        assert not FailureModel().active
        assert FailureModel(
            partitions=PartitionModel(cuts=[((0,), 1.0, 2.0)])
        ).active
        # A checkpoint model alone triggers nothing.
        assert not FailureModel(checkpoint=CheckpointModel(interval=1.0)).active


class TestCheckpointModel:
    def test_recovery_math(self):
        ckpt = CheckpointModel(interval=10.0, write_cost=1.0, restore_cost=2.0)
        assert ckpt.last_durable(25.0) == 20.0
        assert ckpt.last_durable(20.5) == 10.0  # t=20 write not finished
        assert ckpt.last_durable(5.0) == 0.0
        assert ckpt.recovery_seconds(25.0) == pytest.approx(7.0)
        assert ckpt.recovery_seconds(0.0) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointModel(interval=0.0)
        with pytest.raises(ValueError):
            CheckpointModel(interval=1.0, write_cost=-1.0)
        with pytest.raises(ValueError):
            CheckpointModel(interval=1.0, restore_cost=-1.0)


# ---------------------------------------------------------------------------
# Spec grammar v2 (satellite: duplicates + garbled tokens + roundtrip)
# ---------------------------------------------------------------------------
class TestSpecV2:
    def test_duplicate_crash_schedule_raises_naming_the_token(self):
        with pytest.raises(ValueError, match=r"duplicate crash schedule for worker 0"):
            FailureModel.from_spec("0@2.5,0@r3")
        with pytest.raises(ValueError, match=r"'w1@4\.0'"):
            FailureModel.from_spec("1@2.5,w1@4.0")

    def test_duplicate_scalar_keys_raise(self):
        for spec in ("mtbf=1,mtbf=2", "restart=1,restart=2", "seed=1,seed=2",
                     "corr=0.1,corr=0.2", "ckpt=1,ckpt=2"):
            with pytest.raises(ValueError, match="duplicate fault-spec key"):
                FailureModel.from_spec(spec)

    def test_garbled_tokens_name_the_offending_token(self):
        cases = {
            "0@2.5,junk": "'junk'",
            "0@xyz": "'0@xyz'",
            "w@5": "'w@5'",
            "part=0@nope": "'part=0@nope'",
            "part=0": "'part=0'",
            "group=": "'group='",
            "ckpt=1/2/3/4": "'ckpt=1/2/3/4'",
            "frequency=3": "'frequency=3'",
        }
        for spec, token in cases.items():
            with pytest.raises(ValueError, match=token.replace("/", "/")):
                FailureModel.from_spec(spec)

    def test_v2_tokens_parse(self):
        model = FailureModel.from_spec(
            "0@2.5,part=1+2@3.0-5.0,part=3@6.0-inf,group=0+1,group=2+3,"
            "corr=0.8,ckpt=10/0.1/0.5,restart=1.0,seed=7"
        )
        assert model.crash_at_time == {0: 2.5}
        assert model.partitions.cuts == (
            ((1, 2), 3.0, 5.0),
            ((3,), 6.0, float("inf")),
        )
        assert model.groups == ((0, 1), (2, 3))
        assert model.correlation == 0.8
        assert model.checkpoint == CheckpointModel(10.0, 0.1, 0.5)
        assert model.random_state == 7
        # Equality with the constructor form.
        assert model == FailureModel(
            crash_at_time={0: 2.5},
            partitions=PartitionModel(
                cuts=[((1, 2), 3.0, 5.0), ((3,), 6.0, float("inf"))]
            ),
            groups=[[0, 1], [2, 3]],
            correlation=0.8,
            checkpoint=CheckpointModel(10.0, 0.1, 0.5),
            restart_after=1.0,
            random_state=7,
        )

    def test_spec_describe_roundtrip(self):
        spec = "0@2.5,w1@r3,part=2@3.0-5.0,group=0+1,corr=0.5,ckpt=4/0.2/0.3,restart=1.0,seed=9"
        described = FailureModel.from_spec(spec).describe()
        assert described["crash_at_time"] == {"0": 2.5}
        assert described["crash_at_round"] == {"1": 3}
        assert described["groups"] == [[0, 1]]
        assert described["correlation"] == 0.5
        assert described["partitions"] == {
            "cuts": [{"workers": [2], "start": 3.0, "end": 5.0}]
        }
        assert described["checkpoint"] == {
            "interval": 4.0, "write_cost": 0.2, "restore_cost": 0.3
        }
        assert described["restart_after"] == 1.0
        assert described["random_state"] == 9
        json.dumps(described)  # stays JSON-safe

    def test_plain_cut_sequence_is_wrapped(self):
        model = FailureModel(partitions=[((0,), 1.0, 2.0)])
        assert isinstance(model.partitions, PartitionModel)

    def test_scientific_notation_window_bounds(self):
        model = FailureModel.from_spec("part=0@1e-3-5.0,part=1@2.5e-6-1e-5")
        assert model.partitions.cuts == (
            ((0,), 1e-3, 5.0), ((1,), 2.5e-6, 1e-5)
        )

    def test_semantically_bad_values_name_the_token(self):
        # Syntactically parseable values that fail range checks must still
        # point at the offending token, not just the model validation.
        for spec, token in {
            "part=0@5-2": "part=0@5-2",
            "corr=1.5": "corr=1.5",
            "group=0+0": "group=0\\+0",
            "ckpt=0": "ckpt=0",
        }.items():
            with pytest.raises(ValueError, match=token):
                FailureModel.from_spec(spec)


# ---------------------------------------------------------------------------
# Synchronous policies under a partition
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestPartitionSyncPolicies:
    def test_raise_policy_aborts_with_partition_error(
        self, dataset, nofault_trace
    ):
        cluster = SimulatedCluster(
            dataset, 4, faults=_partition_faults(nofault_trace),
            engine="event", random_state=0,
        )
        with pytest.raises(PartitionError) as err:
            NewtonADMM(lam=1e-3, max_epochs=6, record_accuracy=False).fit(cluster)
        assert err.value.worker_id == 1
        assert math.isfinite(err.value.heals_at)
        # PartitionError is a WorkerLostError: strict-sync abort handling
        # (the CLI's structured reporting) covers both.
        assert isinstance(err.value, WorkerLostError)

    def test_stall_policy_waits_out_the_window_bit_identically(
        self, dataset, nofault_trace
    ):
        cluster = SimulatedCluster(
            dataset, 4, faults=_partition_faults(nofault_trace),
            engine="event", random_state=0,
        )
        trace = NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
        ).fit(cluster)
        # Partitions lose time, never data: numerics identical to no-fault.
        assert np.array_equal(trace.final_w, nofault_trace.final_w)
        assert trace.final.modelled_time > nofault_trace.final.modelled_time
        assert cluster.clock.category("stall") > 0.0
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert kinds == ["partition", "heal"]

    def test_stall_times_identical_across_engines(self, dataset, nofault_trace):
        traces = {}
        for mode in ("lockstep", "event"):
            cluster = SimulatedCluster(
                dataset, 4, faults=_partition_faults(nofault_trace),
                engine=mode, random_state=0,
            )
            traces[mode] = NewtonADMM(
                lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
            ).fit(cluster)
        assert np.array_equal(traces["lockstep"].final_w, traces["event"].final_w)
        assert (
            traces["lockstep"].final.modelled_time
            == traces["event"].final.modelled_time
        )

    def test_stall_on_a_never_healing_cut_raises(self, dataset, nofault_trace):
        lo, _ = _window(nofault_trace)
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(
                partitions=PartitionModel(cuts=[((1,), lo, float("inf"))])
            ),
            random_state=0,
        )
        with pytest.raises(PartitionError, match="no scheduled heal"):
            NewtonADMM(
                lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
            ).fit(cluster)

    def test_degrade_policy_excludes_cut_worker_then_rejoins(
        self, dataset, nofault_trace
    ):
        cluster = SimulatedCluster(
            dataset, 4, faults=_partition_faults(nofault_trace),
            engine="event", random_state=0,
        )
        trace = NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="degrade"
        ).fit(cluster)
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert kinds == ["partition", "heal"]
        assert np.isfinite(trace.final.objective)

    def test_unreachable_timeline_segments_on_event_engine(
        self, dataset, nofault_trace
    ):
        cluster = SimulatedCluster(
            dataset, 4, faults=_partition_faults(nofault_trace),
            random_state=0,
        )
        NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
        ).fit(cluster)
        kinds = {s.kind for s in cluster.engine.timeline(1).segments}
        assert "unreachable" in kinds
        assert "down" not in kinds  # the worker never crashed

    def test_stall_override_in_degraded_plan_waits_for_offmember_cut(
        self, dataset
    ):
        # A cut worker excluded from the degraded membership still blocks a
        # per-collective "stall" override: the guard stalls for the heal
        # (instead of the Communicator backstop aborting) and the collective
        # then runs over the membership its buffers were built for.
        from repro.distributed.schedule import (
            Collective,
            RoundPlan,
            execute_plan,
        )

        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(
                partitions=PartitionModel(cuts=[((0,), 0.0, 1.0)])
            ),
            random_state=0,
        )
        plan = RoundPlan("degrade-then-stall", on_failure="degrade")
        plan.local("vals", lambda worker, ctx: float(worker.worker_id + 1))
        plan.add(
            Collective(
                "total", "reduce_scalar", lambda ctx: ctx["vals"],
                on_failure="stall",
            )
        )
        plan.returns("total")
        execution = execute_plan(cluster, plan)
        assert execution.result == pytest.approx(2.0 + 3.0 + 4.0)
        assert cluster.clock.category("stall") >= 1.0

    def test_communicator_backstop_raises_across_a_cut(self, dataset):
        # Imperative comm calls (no plan guard) cannot silently cross a cut.
        cluster = SimulatedCluster(
            dataset, 4,
            faults=FailureModel(
                partitions=PartitionModel(cuts=[((2,), 0.0, 1.0)])
            ),
            random_state=0,
        )
        with pytest.raises(PartitionError):
            cluster.comm.allreduce([np.ones(4)] * 4)


# ---------------------------------------------------------------------------
# Inactive v2 models are invisible (the acceptance criterion)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestInactiveV2ModelsAreInvisible:
    def test_sync_bit_identical_with_armed_partition_and_checkpoint(
        self, dataset
    ):
        def run(faults):
            cluster = SimulatedCluster(
                dataset, 4, faults=faults, engine="event", random_state=0
            )
            return NewtonADMM(
                lam=1e-3, max_epochs=5, record_accuracy=False
            ).fit(cluster)

        plain = run(None)
        armed = run(
            FailureModel(
                partitions=PartitionModel(cuts=[((0,), 1e9, 2e9)]),
                checkpoint=CheckpointModel(interval=1.0, write_cost=0.1,
                                           restore_cost=0.5),
                groups=[[0, 1]],
                correlation=0.9,
            )
        )
        assert np.array_equal(plain.final_w, armed.final_w)
        for a, b in zip(plain.records, armed.records):
            assert a.objective == b.objective
            assert a.modelled_time == b.modelled_time
            assert a.comm_time == b.comm_time
        assert "faults" not in armed.info

    def test_async_bit_identical_with_armed_partition(self, dataset):
        def run(faults):
            cluster = SimulatedCluster(dataset, 4, faults=faults, random_state=0)
            return AsyncNewtonADMM(
                lam=1e-3, max_epochs=8, record_accuracy=False
            ).fit(cluster)

        plain = run(None)
        armed = run(
            FailureModel(
                partitions=PartitionModel(cuts=[((0,), 1e9, 2e9)]),
                checkpoint=CheckpointModel(interval=1.0, restore_cost=0.5),
            )
        )
        assert np.array_equal(plain.final_w, armed.final_w)
        assert plain.final.modelled_time == armed.final.modelled_time


# ---------------------------------------------------------------------------
# Async ride-through: the quorum keeps firing, the healed worker folds once
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestPartitionAsyncRideThrough:
    @pytest.fixture(scope="class")
    def healed_run(self, dataset, nofault_trace):
        lo, hi = _window(nofault_trace, start=0.25, length=0.6)
        faults = FailureModel(
            partitions=PartitionModel(cuts=[((1,), lo, hi)])
        )
        solver = AsyncNewtonADMM(
            lam=1e-3, max_epochs=30, quorum=3, max_staleness=10,
            record_accuracy=False,
        )
        trace = solver.fit(
            SimulatedCluster(dataset, 4, faults=faults, random_state=0)
        )
        return solver, trace, lo, hi

    def test_reaches_target_and_records_partition_events(
        self, healed_run, nofault_trace
    ):
        _, trace, _, _ = healed_run
        target = nofault_trace.final.objective
        assert trace.final.objective <= target
        assert math.isfinite(time_to_objective(trace, target))
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert kinds.count("partition") == 1 and kinds.count("heal") == 1

    def test_every_arrival_passes_the_staleness_gate_exactly_once(
        self, healed_run
    ):
        solver, _, _, hi = healed_run
        log = solver.staleness_log
        folds = [w for entry in log for w in entry["folded_workers"]]
        # No fire folds the same worker twice, and in total every arrival
        # is folded exactly once — the healed worker's stale payload is
        # replaced on arrival, never summed twice.
        for entry in log:
            assert len(entry["folded_workers"]) == len(set(entry["folded_workers"]))
        assert len(folds) == sum(solver.arrival_counts.values())
        post_heal = [
            entry for entry in log
            if entry["time"] >= hi and 1 in entry["folded_workers"]
        ]
        assert post_heal, "healed worker never folded back in"

    def test_cut_worker_keeps_computing_with_unreachable_timeline(
        self, healed_run, dataset
    ):
        _, trace, lo, hi = healed_run
        rows = trace.info["timelines"]
        cut_row = next(r for r in rows if r["worker_id"] == 1)
        kinds = {seg["kind"] for seg in cut_row["segments"]}
        assert "unreachable" in kinds and "busy" in kinds
        assert cut_row["unreachable"] > 0.0

    def test_crash_while_held_behind_the_cut_drops_the_push(
        self, dataset, nofault_trace
    ):
        # The hold stretches the cycle past the window crash_guard saw: a
        # worker that dies behind the cut must never deliver its payload.
        total = nofault_trace.final.modelled_time
        faults = FailureModel(
            crash_at_time={0: 0.2 * total}, restart_after=0.2 * total,
            partitions=PartitionModel(
                cuts=[((0,), 0.05 * total, 0.6 * total)]
            ),
        )
        solver = AsyncNewtonADMM(
            lam=1e-3, max_epochs=20, quorum=3, record_accuracy=False
        )
        trace = solver.fit(
            SimulatedCluster(dataset, 4, faults=faults, random_state=0)
        )
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert "crash" in kinds and "restart" in kinds
        # Folds of worker 0 before the cut opens are legitimate; between the
        # cut start and its restart the worker must never be folded — the
        # push it had in the hold died with it.
        cut_start, restart = 0.05 * total, (0.2 + 0.2) * total
        fold_times = [
            entry["time"] for entry in solver.staleness_log
            if 0 in entry["folded_workers"]
        ]
        assert all(t <= cut_start or t >= restart for t in fold_times)
        assert any(t >= restart for t in fold_times), "worker 0 never rejoined"
        assert sum(
            len(s["folded_workers"]) for s in solver.staleness_log
        ) == sum(solver.arrival_counts.values()) - solver.dropped_arrivals

    def test_crash_during_the_delayed_push_window_drops_the_payload(
        self, dataset, nofault_trace
    ):
        # The hold can land the push in [heal, heal + p2p); a crash inside
        # that window must still drop the in-flight payload — the node died
        # mid-transfer, after the link came back.
        total = nofault_trace.final.modelled_time
        cluster = SimulatedCluster(dataset, 4, random_state=0)
        p2p = cluster.network.point_to_point(cluster.dim * 8.0)
        heal = 0.2 * total
        crash = heal + 0.5 * p2p
        faults = FailureModel(
            crash_at_time={0: crash}, restart_after=0.3 * total,
            partitions=PartitionModel(cuts=[((0,), 0.01 * total, heal)]),
        )
        solver = AsyncNewtonADMM(
            lam=1e-3, max_epochs=20, quorum=3, record_accuracy=False
        )
        trace = solver.fit(
            SimulatedCluster(dataset, 4, faults=faults, random_state=0)
        )
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert "crash" in kinds and "restart" in kinds
        restart = crash + 0.3 * total
        assert not [
            s["time"] for s in solver.staleness_log
            if 0 in s["folded_workers"]
            and 0.01 * total <= s["time"] < restart
        ], "dead node's post-mortem payload entered the consensus sum"

    def test_async_sgd_rides_through_a_healing_cut(self, dataset):
        probe = AsynchronousSGD(lam=1e-3, max_epochs=2, random_state=0).fit(
            SimulatedCluster(dataset, 4, random_state=0)
        )
        total = probe.final.modelled_time
        faults = FailureModel(
            partitions=PartitionModel(cuts=[((0,), 0.3 * total, 0.7 * total)])
        )
        trace = AsynchronousSGD(lam=1e-3, max_epochs=2, random_state=0).fit(
            SimulatedCluster(dataset, 4, faults=faults, random_state=0)
        )
        assert np.isfinite(trace.final.objective)
        kinds = [e["kind"] for e in trace.info["faults"]["events"]]
        assert kinds.count("partition") == 1 and kinds.count("heal") == 1


# ---------------------------------------------------------------------------
# Correlated failures (rack-level blast radius)
# ---------------------------------------------------------------------------
class TestCorrelatedFailures:
    def test_certain_correlation_co_crashes_the_group(self, nofault_trace):
        crash = 0.35 * nofault_trace.final.modelled_time
        inj = FailureModel(
            crash_at_time={0: crash}, groups=[[0, 1]], correlation=1.0
        ).start(4)
        assert inj.is_down(0, crash) and inj.is_down(1, crash)
        assert not inj.is_down(2, crash) and not inj.is_down(3, crash)

    def test_zero_correlation_never_co_crashes(self, nofault_trace):
        crash = 0.35 * nofault_trace.final.modelled_time
        inj = FailureModel(
            crash_at_time={0: crash}, groups=[[0, 1]], correlation=0.0
        ).start(4)
        assert inj.is_down(0, crash) and not inj.is_down(1, crash)

    def test_co_crash_schedule_is_deterministic_and_order_independent(self):
        def make():
            return FailureModel(
                mtbf=10.0, groups=[[0, 1], [2, 3]], correlation=0.5,
                restart_after=1.0, random_state=3,
            ).start(4)

        a, b = make(), make()
        for wid in (3, 2, 1, 0):  # query b in reverse order
            b.first_crash_in(wid, 0.0, 200.0)
        for wid in range(4):
            assert (
                a.first_crash_in(wid, 0.0, 200.0)
                == b.first_crash_in(wid, 0.0, 200.0)
            )

    def test_co_crash_events_are_tagged_with_the_primary(
        self, dataset, nofault_trace
    ):
        crash = 0.35 * nofault_trace.final.modelled_time
        downtime = 0.3 * nofault_trace.final.modelled_time
        trace = AsyncNewtonADMM(
            lam=1e-3, max_epochs=20, quorum=2, record_accuracy=False
        ).fit(
            SimulatedCluster(
                dataset, 4,
                faults=FailureModel(
                    crash_at_time={0: crash}, groups=[[0, 1]],
                    correlation=1.0, restart_after=downtime,
                ),
                random_state=0,
            )
        )
        events = trace.info["faults"]["events"]
        co = [e for e in events if e["kind"] == "co-crash"]
        assert len(co) == 1
        assert co[0]["worker_id"] == 1 and co[0]["with"] == 0

    def test_whole_cluster_group_collapse_raises(self, dataset, nofault_trace):
        crash = 0.35 * nofault_trace.final.modelled_time
        with pytest.raises(WorkerLostError, match="no surviving workers"):
            AsyncNewtonADMM(
                lam=1e-3, max_epochs=20, record_accuracy=False
            ).fit(
                SimulatedCluster(
                    dataset, 4,
                    faults=FailureModel(
                        crash_at_time={0: crash},
                        groups=[[0, 1, 2, 3]],
                        correlation=1.0,
                    ),
                    random_state=0,
                )
            )

    def test_group_validation(self):
        with pytest.raises(ValueError):
            FailureModel(groups=[[0]])
        with pytest.raises(ValueError):
            FailureModel(groups=[[0, -1]])
        with pytest.raises(ValueError):
            FailureModel(groups=[[0, 1]], correlation=1.5)


# ---------------------------------------------------------------------------
# Checkpoint-cost restarts: "stall" is no longer free
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestCheckpointRecovery:
    def test_stall_charges_restore_plus_replay(self, dataset, nofault_trace):
        total = nofault_trace.final.modelled_time
        crash, downtime = 0.35 * total, 0.3 * total

        def run(checkpoint):
            cluster = SimulatedCluster(
                dataset, 4,
                faults=FailureModel(
                    crash_at_time={1: crash}, restart_after=downtime,
                    checkpoint=checkpoint,
                ),
                engine="event", random_state=0,
            )
            return NewtonADMM(
                lam=1e-3, max_epochs=6, record_accuracy=False,
                on_failure="stall",
            ).fit(cluster)

        free = run(None)
        # Single durable checkpoint at t=0: replay the whole prefix.
        ckpt = CheckpointModel(
            interval=10.0 * total, write_cost=0.0, restore_cost=0.2 * total
        )
        paid = run(ckpt)
        assert np.array_equal(paid.final_w, free.final_w)
        extra = paid.final.modelled_time - free.final.modelled_time
        assert extra >= 0.99 * (0.2 * total + crash)
        kinds = [e["kind"] for e in paid.info["faults"]["events"]]
        assert kinds == ["crash", "restart", "restore"]

    def test_recovery_identical_across_engines(self, dataset, nofault_trace):
        total = nofault_trace.final.modelled_time
        traces = {}
        for mode in ("lockstep", "event"):
            cluster = SimulatedCluster(
                dataset, 4,
                faults=FailureModel(
                    crash_at_time={1: 0.35 * total},
                    restart_after=0.3 * total,
                    checkpoint=CheckpointModel(
                        interval=0.25 * total, restore_cost=0.1 * total
                    ),
                ),
                engine=mode, random_state=0,
            )
            traces[mode] = NewtonADMM(
                lam=1e-3, max_epochs=6, record_accuracy=False,
                on_failure="stall",
            ).fit(cluster)
        assert (
            traces["lockstep"].final.modelled_time
            == traces["event"].final.modelled_time
        )
        assert np.array_equal(
            traces["lockstep"].final_w, traces["event"].final_w
        )

    def test_async_revival_pays_recovery_before_next_cycle(
        self, dataset, nofault_trace
    ):
        total = nofault_trace.final.modelled_time
        crash, downtime = 0.3 * total, 0.2 * total

        def run(checkpoint):
            cluster = SimulatedCluster(
                dataset, 4,
                faults=FailureModel(
                    crash_at_time={1: crash}, restart_after=downtime,
                    checkpoint=checkpoint,
                ),
                random_state=0,
            )
            trace = AsyncNewtonADMM(
                lam=1e-3, max_epochs=20, quorum=3, record_accuracy=False
            ).fit(cluster)
            return trace

        free = run(None)
        paid = run(
            CheckpointModel(interval=10.0 * total, restore_cost=0.2 * total)
        )
        kinds = [e["kind"] for e in paid.info["faults"]["events"]]
        assert "restore" in kinds
        # The restore segment lands on the revived worker's timeline.
        row = next(r for r in paid.info["timelines"] if r["worker_id"] == 1)
        labels = {seg["label"] for seg in row["segments"]}
        assert "restore" in labels
        assert np.isfinite(paid.final.objective) and np.isfinite(
            free.final.objective
        )


# ---------------------------------------------------------------------------
# Gantt markers for the new event kinds
# ---------------------------------------------------------------------------
class TestGanttPartitionMarkers:
    @pytest.fixture(scope="class")
    def partitioned_trace(self, dataset, nofault_trace):
        cluster = SimulatedCluster(
            dataset, 4, faults=_partition_faults(nofault_trace),
            random_state=0,
        )
        return NewtonADMM(
            lam=1e-3, max_epochs=6, record_accuracy=False, on_failure="stall"
        ).fit(cluster)

    def test_cut_heal_markers_and_unreachable_fill(self, partitioned_trace):
        art = plot_gantt(partitioned_trace, width=60)
        assert "(" in art and ")" in art
        assert "= unreachable" in art     # legend
        row = next(
            line for line in art.splitlines() if line.startswith("w1")
        )
        assert "=" in row                  # unreachable fill on the cut row

    def test_markers_only_on_the_cut_workers_row(self, partitioned_trace):
        art = plot_gantt(partitioned_trace, width=60)
        rows = {
            line.split("|")[0].strip(): line
            for line in art.splitlines()
            if line.startswith("w")
        }
        assert all("(" not in rows[f"w{i}"] for i in (0, 2, 3))
