"""Tests for the real-process execution engine (``engine="process"``).

Three pillars:

- **Equivalence**: every synchronous solver produces bit-identical fp64
  iterates, identical modelled times, and identical communication totals on
  real OS processes as on the simulated engines — the determinism contract of
  ``docs/performance.md``.  The quick matrix runs at a small worker count
  (``REPRO_PROCESS_TEST_WORKERS``, default 2 — CI pins 2); the golden-trace
  replay at the canonical 4 workers is marked ``slow``.
- **Chaos**: ``kill -9`` of a live worker process surfaces as a structured
  :class:`~repro.distributed.faults.WorkerLostError` under every declared
  ``on_failure`` policy, and the pool respawns cleanly for the next fit.
- **Plumbing**: zero-copy shared-memory shard handoff (placement counters),
  fork-safety of session defaults under spawn, measured wall-clock timelines
  in ``trace.info``, and the async-solver fallback.
- **Transport**: one exchange per local round, a slab stress run driving the
  transport over bare pipes, and nothing left in ``/dev/shm``.
"""

import importlib.util
import json
import multiprocessing as mp
import os
import signal
import time
import traceback
from pathlib import Path

import numpy as np
import pytest

from repro.admm.async_newton_admm import AsyncNewtonADMM
from repro.admm.newton_admm import NewtonADMM
from repro.baselines.aide import AIDE
from repro.baselines.dane import InexactDANE
from repro.baselines.giant import GIANT
from repro.baselines.sync_sgd import SynchronousSGD
from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.faults import WorkerLostError
from repro.distributed.process_engine import (
    ChildTransport,
    MasterTransport,
    ShmArena,
    in_worker_process,
    process_engine_info,
)
from repro.harness.config import default_engine, set_default_engine
from repro.harness.runner import SOLVER_REGISTRY
from repro.objectives.softmax import SoftmaxCrossEntropy

pytestmark = pytest.mark.process_engine

GOLDEN_PATH = Path(__file__).parent / "golden" / "schedule_equivalence.json"

#: worker count of the quick equivalence matrix; CI pins this to 2 so the
#: suite cannot oversubscribe small runners
N_WORKERS = int(os.environ.get("REPRO_PROCESS_TEST_WORKERS", "2"))

#: mirrors tests/test_schedule.py (and the golden generator) so the process
#: engine is held to the same recorded schedules
SOLVER_FACTORIES = {
    "newton_admm": lambda: NewtonADMM(lam=1e-3, max_epochs=4, record_accuracy=False),
    "giant": lambda: GIANT(lam=1e-3, max_epochs=4, record_accuracy=False),
    "inexact_dane": lambda: InexactDANE(lam=1e-3, max_epochs=2, record_accuracy=False),
    "aide": lambda: AIDE(lam=1e-3, max_epochs=2, tau=0.5, record_accuracy=False),
    "sync_sgd": lambda: SynchronousSGD(
        lam=1e-3, max_epochs=2, step_size=0.2, record_accuracy=False
    ),
}


@pytest.fixture(scope="module")
def dataset():
    return make_multiclass_gaussian(240, 10, 3, class_separation=3.0, random_state=0)


class _DiesOnRecord(SoftmaxCrossEntropy):
    """Kills its own process, if that is a spawned rank, when asked for
    predictions on its shard — which only the epoch record asks for."""

    def predict(self, w, X=None):
        if X is None and in_worker_process():
            os.kill(os.getpid(), signal.SIGKILL)
        return super().predict(w, X)


def _dies_on_record(shard, n_total):
    """Loss factory (module level: spawn pickles it by reference)."""
    return _DiesOnRecord(shard.X, shard.y, shard.n_classes, scale=1.0 / n_total)


class _MasterFailsSecondEpoch(NewtonADMM):
    """Raises on rank 0 when planning epoch 2, while the spawned ranks are
    already waiting in that epoch's first exchange."""

    def _plan_epoch(self, cluster, epoch):
        if epoch == 2 and not in_worker_process():
            raise TypeError("planted rank-0 failure")
        return super()._plan_epoch(cluster, epoch)


def _fit(data, name, engine, n_workers=N_WORKERS, **solver_kwargs):
    cluster = SimulatedCluster(
        data, n_workers, loss="softmax", engine=engine, random_state=0
    )
    solver = SOLVER_FACTORIES[name]()
    for key, value in solver_kwargs.items():
        setattr(solver, key, value)
    try:
        trace = solver.fit(cluster)
    finally:
        cluster.close()
    return trace, cluster


# ---------------------------------------------------------------------------
# Equivalence: real processes change no float
# ---------------------------------------------------------------------------
class TestEngineEquivalence:
    def test_matrix_covers_every_plan_driven_solver(self):
        """A solver that runs on the process engine must be in the matrix, so
        its collectives are checked to read only replicated context."""
        plan_driven = {
            name
            for name, cls in SOLVER_REGISTRY.items()
            if cls.supports_process_engine
        }
        assert set(SOLVER_FACTORIES) == plan_driven

    def test_goldens_cover_every_plan_driven_solver(self):
        """Adding or removing a plan-driven solver adds or removes its golden."""
        path = GOLDEN_PATH.parent / "generate_schedule_goldens.py"
        spec = importlib.util.spec_from_file_location(path.stem, path)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        assert set(generator.CASES) == {
            name
            for name, cls in SOLVER_REGISTRY.items()
            if cls.supports_process_engine
        }

    @pytest.mark.parametrize("name", sorted(SOLVER_FACTORIES))
    def test_process_matches_simulated_engines(self, name, dataset):
        traces = {}
        for engine in ("event", "process"):
            traces[engine], _ = _fit(dataset, name, engine)
        reference, process = traces["event"], traces["process"]
        assert process.final_w.dtype == np.float64
        assert np.array_equal(process.final_w, reference.final_w)
        assert [r.objective for r in process.records] == [
            r.objective for r in reference.records
        ]
        # The process engine replicates the event engine's modelled
        # accounting exactly: clocks, rounds, collectives, and bytes.
        assert [r.modelled_time for r in process.records] == [
            r.modelled_time for r in reference.records
        ]
        assert [r.comm_time for r in process.records] == [
            r.comm_time for r in reference.records
        ]
        for field in ("rounds", "collectives", "bytes"):
            assert (
                process.info["communication"][field]
                == reference.info["communication"][field]
            )
        assert process.info["total_flops"] == reference.info["total_flops"]

    def test_process_run_is_self_deterministic(self, dataset):
        one, _ = _fit(dataset, "newton_admm", "process")
        two, _ = _fit(dataset, "newton_admm", "process")
        assert np.array_equal(one.final_w, two.final_w)

    # Eight ranks is past the quick subset's two-worker cap (and ~4 s on two
    # cores), so that case runs with the slow tests.
    @pytest.mark.parametrize("n_workers", [1, pytest.param(8, marks=pytest.mark.slow)])
    def test_extreme_widths_match_event_engine(self, n_workers, dataset):
        """A single rank and eight ranks, the widths the 2/4-rank tests above
        never reach, still change no float."""
        event, _ = _fit(dataset, "newton_admm", "event", n_workers=n_workers)
        process, _ = _fit(dataset, "newton_admm", "process", n_workers=n_workers)
        assert np.array_equal(process.final_w, event.final_w)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(SOLVER_FACTORIES))
    def test_matches_pre_refactor_golden_at_four_workers(self, name, dataset):
        with GOLDEN_PATH.open() as fh:
            golden = json.load(fh)
        trace, cluster = _fit(dataset, name, "process", n_workers=4)
        expected = golden[name]
        assert trace.final_w.tolist() == expected["final_w"]
        assert [r.objective for r in trace.records] == expected["objectives"]
        assert [r.modelled_time for r in trace.records] == expected["modelled_times"]
        assert cluster.comm.log.n_rounds == expected["comm_rounds"]
        assert cluster.comm.log.n_collectives == expected["n_collectives"]
        assert cluster.comm.log.bytes_transferred == expected["bytes_transferred"]


# ---------------------------------------------------------------------------
# Measured wall-clock alongside modelled time
# ---------------------------------------------------------------------------
class TestWallClock:
    def test_trace_records_measured_timelines(self, dataset):
        trace, _ = _fit(dataset, "newton_admm", "process")
        wall = trace.info["wall_clock"]
        assert wall["engine"] == "process"
        assert wall["n_processes"] == N_WORKERS
        assert wall["start_method"] == "spawn"
        assert wall["elapsed_seconds"] > 0
        assert len(wall["workers"]) == N_WORKERS
        for row in wall["workers"]:
            assert row["total"] > 0
            assert row["busy"] > 0
        summary = wall["summary"]
        assert summary["n_workers"] == N_WORKERS
        assert summary["makespan_seconds"] > 0
        assert 0.0 < summary["parallel_efficiency"] <= 1.0
        json.dumps(wall)  # artifact-serializable like every other info block

    def test_modelled_timelines_still_attached(self, dataset):
        """Real execution does not displace the modelled event timelines."""
        trace, _ = _fit(dataset, "newton_admm", "process")
        assert "timelines" in trace.info
        assert len(trace.info["timelines"]) == N_WORKERS


# ---------------------------------------------------------------------------
# Chaos: kill -9 a live worker
# ---------------------------------------------------------------------------
class TestChaos:
    @pytest.mark.parametrize("policy", ["raise", "stall"])
    def test_sigkill_raises_structured_loss(self, policy, dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            runtime = cluster.process_runtime
            runtime.ensure_started()
            victim = N_WORKERS - 1
            os.kill(runtime.worker_pids()[victim], signal.SIGKILL)
            solver = NewtonADMM(
                lam=1e-3, max_epochs=2, record_accuracy=False, on_failure=policy
            )
            with pytest.raises(WorkerLostError) as excinfo:
                solver.fit(cluster)
            error = excinfo.value
            assert error.worker_id == victim
            assert f"policy '{policy}'" in str(error)
            if policy == "stall":
                assert "cannot restart" in str(error)
        finally:
            cluster.close()

    def test_child_lost_in_the_record_exchange_raises_structured_loss(self, dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss=_dies_on_record, engine="process", random_state=0
        )
        try:
            with pytest.raises(WorkerLostError) as excinfo:
                NewtonADMM(lam=1e-3, max_epochs=2).fit(cluster)
            error = excinfo.value
            assert error.worker_id == 1
            assert "policy 'raise'" in str(error)
            # Lost after the first epoch's rounds, at its record.
            assert error.time > 0
            assert cluster.process_runtime.worker_pids() == {}
        finally:
            cluster.close()

    def test_rank0_error_reaches_the_caller_without_the_watchdog(self, dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            cluster.process_runtime.ensure_started()
            solver = _MasterFailsSecondEpoch(
                lam=1e-3, max_epochs=3, record_accuracy=False
            )
            start = time.monotonic()
            with pytest.raises(TypeError, match="planted rank-0 failure"):
                solver.fit(cluster)
            # The children's own watchdog (REPRO_PROCESS_TIMEOUT, 120 s by
            # default) must not be what ends them.
            assert time.monotonic() - start < 10.0
            assert not [
                p for p in mp.active_children() if p.name.startswith("repro-worker-")
            ]
        finally:
            cluster.close()

    def test_pool_respawns_after_a_loss(self, dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            runtime = cluster.process_runtime
            runtime.ensure_started()
            first_pids = runtime.worker_pids()
            os.kill(first_pids[1], signal.SIGKILL)
            with pytest.raises(WorkerLostError):
                NewtonADMM(lam=1e-3, max_epochs=2, record_accuracy=False).fit(cluster)
            # The next fit starts a fresh pool and completes normally...
            trace = NewtonADMM(lam=1e-3, max_epochs=2, record_accuracy=False).fit(
                cluster
            )
            assert np.isfinite(trace.records[-1].objective)
            # ...with new worker processes, not zombies of the old pool.
            assert set(runtime.worker_pids().values()).isdisjoint(
                first_pids.values()
            )
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Zero-copy shard handoff
# ---------------------------------------------------------------------------
def _shard_arrays(shard):
    """The arrays ``ShmArena.place_dataset`` copies for ``shard``."""
    X = shard.X
    return [shard.y] + ([X.data, X.indices, X.indptr] if shard.is_sparse else [X])


def _block_names(spec):
    """Names of the shared-memory blocks behind a placed dataset spec."""
    X = spec["X"]
    arrays = [X["data"], X["indices"], X["indptr"]] if spec["kind"] == "csr" else [X]
    return sorted(array["name"] for array in arrays + [spec["y"]])


class TestSharedMemoryHandoff:
    def test_datasets_cross_once_via_shared_memory(self, dataset):
        self._assert_shards_cross_once(dataset)

    def test_csr_shards_cross_once_via_shared_memory(self, dataset):
        import scipy.sparse as sp

        from repro.datasets.base import ClassificationDataset

        self._assert_shards_cross_once(
            ClassificationDataset(sp.csr_matrix(dataset.X), dataset.y, dataset.n_classes)
        )

    @staticmethod
    def _assert_shards_cross_once(dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            runtime = cluster.process_runtime
            NewtonADMM(lam=1e-3, max_epochs=2, record_accuracy=False).fit(cluster)
            # One shard per child, placed exactly once: rank 0 computes on its
            # in-memory shard and no rank reads the full training set.
            shards = [cluster.workers[rank].shard for rank in range(1, N_WORKERS)]
            arrays = [a for shard in shards for a in _shard_arrays(shard)]
            placements = runtime.shm_placements
            assert placements == len(arrays)
            assert runtime.shm_bytes == sum(a.nbytes for a in arrays)
            # A second fit on the same cluster reuses the pool and the arena:
            # no dataset bytes cross the process boundary again.
            NewtonADMM(lam=1e-3, max_epochs=2, record_accuracy=False).fit(cluster)
            assert runtime.shm_placements == placements
        finally:
            cluster.close()

    def test_each_child_attaches_only_its_own_shard(self, dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            runtime = cluster.process_runtime
            runtime.ensure_started()
            assert sorted(runtime.child_info) == list(range(1, N_WORKERS))
            for rank, info in runtime.child_info.items():
                assert info["attached"] == _block_names(runtime.shard_specs[rank])
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Fork safety: spawned replicas see explicit session state, runs stay
# independent
# ---------------------------------------------------------------------------
class TestForkSafety:
    def test_children_apply_bootstrap_session_defaults(self, dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            runtime = cluster.process_runtime
            runtime.ensure_started()
            for info in runtime.child_info.values():
                assert info["start_method"] == "spawn"
                session = info["session"]
                assert session["engine"] == "process"
                assert session["backend"] == "numpy"
        finally:
            cluster.close()

    def test_sequential_runs_are_independent(self, dataset):
        """Mutating session defaults between runs must not leak through a
        stale pool: each run's children carry their own bootstrap."""
        previous = default_engine()
        trace_a, _ = _fit(dataset, "newton_admm", "process")
        try:
            set_default_engine("event")  # perturb session state between runs
            trace_b, _ = _fit(dataset, "newton_admm", "process")
        finally:
            set_default_engine(previous)
        assert np.array_equal(trace_a.final_w, trace_b.final_w)
        assert [r.modelled_time for r in trace_a.records] == [
            r.modelled_time for r in trace_b.records
        ]


# ---------------------------------------------------------------------------
# Async fallback + guard rails
# ---------------------------------------------------------------------------
class TestDispatchPolicy:
    def test_async_solver_falls_back_to_simulated_path(self, dataset):
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            assert AsyncNewtonADMM.supports_process_engine is False
            solver = AsyncNewtonADMM(
                lam=1e-3, max_epochs=2, record_accuracy=False
            )
            trace = solver.fit(cluster)
            # Ran in-process: no measured wall-clock block, no worker pool.
            assert "wall_clock" not in trace.info
            assert cluster.process_runtime.worker_pids() == {}
        finally:
            cluster.close()

    def test_simulated_fault_injection_rejected_up_front(self, dataset):
        from repro.distributed.faults import FailureModel

        with pytest.raises(ValueError, match="modelled FailureModel injection"):
            SimulatedCluster(
                dataset,
                N_WORKERS,
                engine="process",
                faults=FailureModel.from_spec("0@2.5,restart=1.0"),
                random_state=0,
            )


# ---------------------------------------------------------------------------
# Transport: one exchange per local round, arrays through slabs
# ---------------------------------------------------------------------------
class TestOneExchangePerLocalRound:
    @pytest.mark.parametrize("name", ["newton_admm", "sync_sgd"])
    def test_exchanges_equal_map_workers_calls(self, name, dataset, monkeypatch):
        calls = []
        original = SimulatedCluster.map_workers

        def counted(cluster, fn, **kwargs):
            calls.append(fn)
            return original(cluster, fn, **kwargs)

        monkeypatch.setattr(SimulatedCluster, "map_workers", counted)
        trace, _ = _fit(dataset, name, "process")
        # Local rounds: x-update + dual update per Newton-ADMM epoch, one per
        # SGD mini-batch (each followed by its all-reduce).  The collectives
        # ride on the exchanged results and add no exchange of their own;
        # each epoch record adds one, for the per-shard partials.
        assert len(calls) == {
            "newton_admm": 2 * len(trace.info["schedule"]["epochs"]),
            "sync_sgd": trace.info["communication"]["collectives"],
        }[name]
        per_rank = trace.info["wall_clock"]["transport"]
        assert [row["rank"] for row in per_rank] == list(range(N_WORKERS))
        for row in per_rank:
            assert row["exchanges"] == len(calls) + len(trace.records)
            assert row["bytes"] > 0


_SHM_DIR = "/dev/shm"
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(_SHM_DIR), reason="no /dev/shm on this platform"
)

_STRESS_RANKS = 3  # more ranks than this suite's CI runners have cores
_STRESS_ROUNDS = 300


def _stress_payload(rank, k):
    """What ``rank`` contributes in round ``k``: every leaf kind the slab
    path has to carry, at sizes that change every round and outgrow the
    slabs half-way through the run."""
    if k % 11 == rank:
        return None  # a rank outside the round's targets
    rng = np.random.default_rng([rank, k])
    n = (3, 20_000, 17)[k % 3] * (1 if k < _STRESS_ROUNDS // 2 else 5)
    result = {
        "vec": rng.standard_normal(n),
        "f32": rng.standard_normal((n // 3 + 1, 3)).astype(np.float32),
        "fortran": np.asfortranarray(rng.standard_normal((4, 5))),
        "strided": rng.standard_normal(2 * n)[::2],
        "zero_d": np.array(float(k)),
        "empty": np.empty((0, 3)),
        "nested": [
            rng.integers(0, 9, size=5),
            (np.float64(k) / 3, None, "text", k),
        ],
    }
    return result, 1e-3 * k, float(n)


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _assert_bitwise_equal(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, dict):
        assert list(got) == list(expected)
    if isinstance(expected, (dict, list, tuple)):
        assert len(got) == len(expected)
    for a, b in zip(_leaves(got), _leaves(expected)):
        assert type(a) is type(b)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
            # layout as pickling would leave it: Fortran order kept
            assert a.flags.f_contiguous or not b.flags.f_contiguous
        else:
            assert a == b


def _stress_exchanges(transport, rounds):
    """Run ``rounds`` exchanges as ``transport.rank``; assert every received
    value round-trips bitwise, and that it owns its memory: it survives the
    rewrite of the slab it came from, and scribbling on it reaches no one."""
    transport.reset(None)
    peers = [r for r in range(transport.n_ranks) if r != transport.rank]
    held = {}
    for k in range(rounds):
        mine = _stress_payload(transport.rank, k)
        parts = transport.allgather(mine)
        assert parts[transport.rank] is mine
        for peer in peers:
            _assert_bitwise_equal(parts[peer], _stress_payload(peer, k))
        for old in [j for j in held if j <= k - 2]:
            for peer, value in held.pop(old).items():
                _assert_bitwise_equal(value, _stress_payload(peer, old))
                for leaf in _leaves(value):
                    if isinstance(leaf, np.ndarray):
                        assert leaf.flags.owndata and leaf.flags.writeable
                        leaf[...] = 7
        held[k] = {peer: parts[peer] for peer in peers}
    counters = transport.counters()
    assert counters["exchanges"] == rounds and counters["bytes"] > 0


def _stress_child(rank, conn, rounds):
    """Entry point of a stress rank (top-level: spawn-picklable)."""
    try:
        _stress_exchanges(ChildTransport(rank, _STRESS_RANKS, conn, 60.0), rounds)
        conn.send(("done", 0, None))
    except BaseException:
        conn.send(("error", 0, traceback.format_exc()))
        raise


class _PipeRuntime:
    """What a MasterTransport needs of its ProcessRuntime, over bare pipes."""

    def __init__(self, conns):
        self.n_ranks = len(conns) + 1
        self.arena = ShmArena()
        self._conns = conns

    def send_to(self, rank, message):
        self._conns[rank].send(message)

    def recv_from(self, rank):
        assert self._conns[rank].poll(60.0), f"rank {rank} sent nothing for 60 s"
        return self._conns[rank].recv()


@needs_dev_shm
class TestSlabTransport:
    def test_stress_round_trips_bitwise_and_owns_its_memory(self):
        before = set(os.listdir(_SHM_DIR))
        ctx = mp.get_context("spawn")
        conns, procs = {}, []
        for rank in range(1, _STRESS_RANKS):
            conns[rank], child_conn = ctx.Pipe(duplex=True)
            procs.append(
                ctx.Process(
                    target=_stress_child,
                    args=(rank, child_conn, _STRESS_ROUNDS),
                    daemon=True,
                )
            )
            procs[-1].start()
            child_conn.close()
        runtime = _PipeRuntime(conns)
        try:
            # A failed assertion in a child arrives as its traceback.
            _stress_exchanges(MasterTransport(runtime), _STRESS_ROUNDS)
            for rank in conns:
                assert runtime.recv_from(rank)[0] == "done"
            for proc in procs:
                proc.join(timeout=30.0)
                assert not proc.is_alive()
            # Two slabs per rank, replaced (not added to) when they grew.
            assert len(set(os.listdir(_SHM_DIR)) - before) == 2 * _STRESS_RANKS
            assert runtime.arena.placements == 0
        finally:
            for proc in procs:
                proc.kill()
            runtime.arena.close()
        assert set(os.listdir(_SHM_DIR)) == before

    def test_nothing_left_after_close(self, dataset):
        before = set(os.listdir(_SHM_DIR))
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            NewtonADMM(lam=1e-3, max_epochs=2, record_accuracy=False).fit(cluster)
            # the dataset blocks, plus the slabs the ranks wrote arrays to
            created = set(os.listdir(_SHM_DIR)) - before
            assert len(created) > cluster.process_runtime.shm_placements
        finally:
            cluster.close()
        assert set(os.listdir(_SHM_DIR)) == before

    def test_nothing_left_after_sigkill(self, dataset):
        before = set(os.listdir(_SHM_DIR))
        cluster = SimulatedCluster(
            dataset, N_WORKERS, loss="softmax", engine="process", random_state=0
        )
        try:
            solver = NewtonADMM(lam=1e-3, max_epochs=2, record_accuracy=False)
            solver.fit(cluster)  # the victim has slabs of its own by now
            os.kill(cluster.process_runtime.worker_pids()[1], signal.SIGKILL)
            with pytest.raises(WorkerLostError):
                solver.fit(cluster)
            # The parent created every block, so the loss alone releases them.
            assert set(os.listdir(_SHM_DIR)) == before
        finally:
            cluster.close()


# ---------------------------------------------------------------------------
# Introspection
# ---------------------------------------------------------------------------
class TestIntrospection:
    def test_process_engine_info_shape(self):
        info = process_engine_info()
        assert info["start_method"] == "spawn"
        assert info["cpu_count"] >= 1
        assert info["shared_memory"] is True
        assert isinstance(info["torch_distributed"], str)
