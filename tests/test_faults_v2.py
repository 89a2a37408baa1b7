"""Fault model tests for network partitions (link loss distinct from node
loss), the ``--faults`` spec grammar (duplicate/garbled-token diagnostics and
the spec→describe roundtrip), and the Gantt partition markers."""

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
# PartitionModel units
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


# ---------------------------------------------------------------------------
# Spec grammar: duplicates, garbled tokens, roundtrip
# ---------------------------------------------------------------------------
class TestSpecV2:
    def test_duplicate_crash_schedule_raises_naming_the_token(self):
        with pytest.raises(ValueError, match=r"duplicate crash schedule for worker 0"):
            FailureModel.from_spec("0@2.5,0@3")
        with pytest.raises(ValueError, match=r"'w1@4\.0'"):
            FailureModel.from_spec("1@2.5,w1@4.0")

    def test_duplicate_scalar_keys_raise(self):
        with pytest.raises(ValueError, match="duplicate fault-spec key"):
            FailureModel.from_spec("restart=1,restart=2")

    def test_garbled_tokens_name_the_offending_token(self):
        cases = {
            "0@2.5,junk": "'junk'",
            "0@xyz": "'0@xyz'",
            "w@5": "'w@5'",
            "part=0@nope": "'part=0@nope'",
            "part=0": "'part=0'",
            "part=@1-2": "'part=@1-2'",
            "frequency=3": "'frequency=3'",
        }
        for spec, token in cases.items():
            with pytest.raises(ValueError, match=token):
                FailureModel.from_spec(spec)

    def test_v2_tokens_parse(self):
        model = FailureModel.from_spec(
            "0@2.5,part=1+2@3.0-5.0,part=3@6.0-inf,restart=1.0"
        )
        assert model.crash_at_time == {0: 2.5}
        assert model.partitions.cuts == (
            ((1, 2), 3.0, 5.0),
            ((3,), 6.0, float("inf")),
        )
        # Equality with the constructor form.
        assert model == FailureModel(
            crash_at_time={0: 2.5},
            partitions=PartitionModel(
                cuts=[((1, 2), 3.0, 5.0), ((3,), 6.0, float("inf"))]
            ),
            restart_after=1.0,
        )

    def test_spec_describe_roundtrip(self):
        spec = "0@2.5,w1@3,part=2@3.0-5.0,restart=1.0"
        described = FailureModel.from_spec(spec).describe()
        assert described == {
            "crash_at_time": {"0": 2.5, "1": 3.0},
            "restart_after": 1.0,
            "partitions": {
                "cuts": [{"workers": [2], "start": 3.0, "end": 5.0}]
            },
        }
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
            "part=0@-1-2": "part=0@-1-2",
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
    def test_sync_bit_identical_with_armed_partition(self, dataset):
        def run(faults):
            cluster = SimulatedCluster(
                dataset, 4, faults=faults, engine="event", random_state=0
            )
            return NewtonADMM(
                lam=1e-3, max_epochs=5, record_accuracy=False
            ).fit(cluster)

        plain = run(None)
        armed = run(
            FailureModel(partitions=PartitionModel(cuts=[((0,), 1e9, 2e9)]))
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
            FailureModel(partitions=PartitionModel(cuts=[((0,), 1e9, 2e9)]))
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
# Gantt markers for partition events
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
