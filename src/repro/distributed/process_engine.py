"""Real execution engine: every worker is an OS process (``engine="process"``).

The in-process ``event`` engine runs all workers on one thread and *models*
time; every speedup the repo reports through it is modelled, not measured.
This module executes the same solver schedules on real parallelism so the
paper's wall-clock claims can be measured:

SPMD replication
    Round plans carry closures over solver state (the ADMM x-update closes
    over ``z``), which cannot be shipped to another process.  Instead of
    shipping steps, the runtime ships the *solver* (hyper-parameters only —
    cheap and picklable) and every rank runs the identical ``fit`` loop on its
    own replica of the cluster, computing only its own worker's
    :class:`~repro.distributed.schedule.LocalStep` and exchanging the
    results once per local round.  This is exactly how the paper's mpi4py
    implementation is structured: one program, N ranks, rank 0 doubling as
    the master.  The parent process *is* rank 0; ``n_workers - 1`` children
    are spawned (never forked — see the fork-safety notes below).

Determinism contract
    Ranks exchange data once per local round and once per epoch record.
    :meth:`ProcessRole.map_workers` leaves every rank holding the full list
    of per-worker results, ordered by rank;
    :meth:`~repro.distributed.cluster.SimulatedCluster.map_shards` does the
    same for the record's per-shard partials, which every rank folds in rank
    order exactly as the event engine does, outside the communication
    log.  The plan's collectives then run on those replicated buffers
    through the unmodified :class:`~repro.distributed.comm.Communicator` —
    the *same left-fold* and the same modelled accounting as on the
    event engine, moving nothing — so fp64 iterates are bit-identical
    to the ``event`` engine's.  (A collective's payload must read only
    replicated context, never one worker's private state; the process/event
    bit-identity matrix in ``tests/test_process_engine.py`` runs every
    plan-driven solver on both engines to check it.)  Modelled clocks and
    per-worker timelines keep running exactly as on the ``event`` engine
    (every rank drives an identical :class:`EventEngine` replica); real time
    is recorded separately, as per-rank wall-clock timelines.

Slab transport
    One exchange moves each rank's ``(result, modelled_time, flops)`` payload
    to every other rank.  Every ``ndarray`` in the payload is written to the
    sending rank's *slab* — a shared-memory block created and unlinked by
    the parent (:class:`ShmArena`), attached by name in the children — and
    the pipe carries only the pickled structure, with an ``(offset, shape,
    dtype, order)`` placeholder where each array was.  The topology is a
    star rooted at rank 0: children send their descriptor, rank 0 forwards
    to each child the descriptors of the *other* ranks, and every receiver
    copies the arrays out of the senders' slabs, so results own their
    memory.  A payload that outgrows its slab makes the parent replace the
    block with a larger one; the descriptor names the block it refers to.

    *When a slab may be rewritten.*  Each rank has two slabs and writes
    round ``k`` (the transport's ``seq``) to slab ``k % 2``.  A rank sends
    its round-``k+1`` descriptor only after it has finished copying round
    ``k``; rank 0 forwards round ``k+1`` only after it has every such
    descriptor (and its own round-``k`` copies are done); a rank starts
    round ``k+2`` only after it has received round ``k+1``.  So when slab
    ``k % 2`` is written again — or replaced by a larger block — in round
    ``k+2``, no peer is still reading round ``k`` from it.  Across fits the
    same holds through the ``done``/``fit`` messages, which is why ``seq``
    may restart at 0.  The pipe stays the synchronization and control
    channel, so liveness polling and the watchdog work as before.

Zero-copy shards
    The parent places the shards of ranks 1..N-1 into
    ``multiprocessing.shared_memory`` once, at spawn; rank 0 computes on its
    in-memory shard and no rank reads the full training set.  Each child
    attaches NumPy views of its own shard only and builds its replica from
    shard metadata: the other workers carry their row counts, and
    ``n_total`` is the sum of the shard sizes.  Shard bytes never travel
    through the command pipes; the placement counters
    (``ProcessRuntime.shm_placements`` / ``shm_bytes``) and the blocks each
    child reports attached (``child_info[rank]["attached"]``) are asserted
    in tests.

Fork safety
    The runtime always uses the ``spawn`` start method, so children inherit
    *no* module state.  Session defaults mutated by the CLI
    (:func:`repro.backend.set_default_precision`,
    :func:`repro.harness.config.set_default_engine`, the backend registry
    default) are re-applied in the child bootstrap from explicit bootstrap
    values — never read from inherited globals; the cluster's resolved
    precision travels apart from the parent's session default.

Failure semantics (the chaos harness)
    A ``kill -9`` of a worker process is detected at the next
    synchronization point (pipe EOF / liveness probe) and surfaces as the
    same structured :class:`~repro.distributed.faults.WorkerLostError` the
    modelled fault injector raises, with the executing plan's ``on_failure``
    policy in the reason: a real process cannot be restarted mid-collective,
    so ``"stall"`` reports *why* it cannot apply rather than hanging.  Modelled :class:`~repro.distributed.faults.FailureModel`
    injection and straggler models stay with the event engine.

A ``torch.distributed`` (gloo) transport is probed by
:func:`process_engine_info` and reported by ``python -m repro engines``; the
slab transport below is the implementation.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import sys
import time
import traceback
import weakref
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import default_precision
from repro.datasets.base import ClassificationDataset
from repro.distributed.faults import WorkerLostError
from repro.metrics.timeline import WorkerTimeline, wall_clock_summary

#: seconds a blocked rank waits for a peer before declaring it hung
DEFAULT_SYNC_TIMEOUT = float(os.environ.get("REPRO_PROCESS_TIMEOUT", "120"))

#: polling granularity of the liveness watchdog (seconds)
_POLL_INTERVAL = 0.02

#: set in children by :func:`_worker_main`; lets the cluster distinguish the
#: driving parent (which owns a ProcessRuntime) from a rank-local replica
_IN_WORKER_PROCESS = False


def in_worker_process() -> bool:
    """True inside a spawned worker process (rank >= 1)."""
    return _IN_WORKER_PROCESS


def process_engine_info() -> Dict[str, Any]:
    """Introspection for ``python -m repro engines``: what real parallelism
    is available on this host."""
    try:
        cpu_count = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpu_count = os.cpu_count() or 1
    try:
        import torch.distributed as dist  # type: ignore

        if dist.is_available():
            gloo = getattr(dist, "is_gloo_available", lambda: False)()
            torch_distributed = "gloo" if gloo else "available (no gloo)"
        else:  # pragma: no cover - torch built without distributed
            torch_distributed = "built without distributed"
    except ImportError:
        torch_distributed = "not installed"
    return {
        "start_method": "spawn",
        "cpu_count": int(cpu_count),
        "torch_distributed": torch_distributed,
        "shared_memory": True,
        "sync_timeout": DEFAULT_SYNC_TIMEOUT,
    }


# ---------------------------------------------------------------------------
# Shared-memory placement (zero-copy shard handoff)
# ---------------------------------------------------------------------------
class ShmArena:
    """Owns every shared-memory block of one worker pool; parent side.

    ``place_dataset`` copies a dataset's arrays into fresh blocks exactly
    once and returns a picklable *spec* children use to attach zero-copy
    views.  ``placements``/``bytes_placed`` count those dataset blocks — the
    transfer counter the zero-copy tests assert stays constant across fits.
    The ranks' exchange slabs (:meth:`slab`) live here too, so that the
    parent unlinks them whatever happens to the rank that writes them; they
    are not placements and are not counted as such.
    """

    def __init__(self) -> None:
        self._blocks: List[shared_memory.SharedMemory] = []
        self._slabs: Dict[Tuple[int, int], shared_memory.SharedMemory] = {}
        self.placements = 0
        self.bytes_placed = 0

    def _place_array(self, array: np.ndarray) -> Dict[str, Any]:
        array = np.ascontiguousarray(array)
        block = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        self._blocks.append(block)
        self.placements += 1
        self.bytes_placed += int(array.nbytes)
        return {"name": block.name, "shape": array.shape, "dtype": str(array.dtype)}

    def place_dataset(self, dataset: ClassificationDataset) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "n_classes": int(dataset.n_classes),
            "name": dataset.name,
            "metadata": dict(dataset.metadata),
            "y": self._place_array(np.asarray(dataset.y)),
        }
        if dataset.is_sparse:
            X = dataset.X.tocsr()
            spec["kind"] = "csr"
            spec["X"] = {
                "data": self._place_array(X.data),
                "indices": self._place_array(X.indices),
                "indptr": self._place_array(X.indptr),
                "shape": tuple(X.shape),
            }
        else:
            spec["kind"] = "dense"
            spec["X"] = self._place_array(np.asarray(dataset.X))
        return spec

    def slab(
        self, rank: int, parity: int, nbytes: int = 0
    ) -> shared_memory.SharedMemory:
        """The block behind exchange slab ``parity`` of ``rank``, replaced by
        a larger one (at least doubling) when it cannot hold ``nbytes``.

        Replacing unlinks the old block at once: by the ordering argument in
        the module docstring no rank reads it any more, and peers that still
        have it mapped re-attach when a descriptor names the new block.
        """
        old = self._slabs.get((rank, parity))
        if old is not None and old.size >= nbytes:
            return old
        size = max(1, nbytes)
        if old is not None:
            size = max(size, 2 * old.size)
            self._release(old)
        block = shared_memory.SharedMemory(create=True, size=size)
        self._slabs[rank, parity] = block
        return block

    @staticmethod
    def _release(block: shared_memory.SharedMemory) -> None:
        try:
            block.close()
            block.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass

    def close(self) -> None:
        """Release and unlink every block (parent owns the lifetime)."""
        for block in self._blocks + list(self._slabs.values()):
            self._release(block)
        self._blocks = []
        self._slabs = {}


#: child-side: attached blocks must outlive the views built on their buffers
_ATTACHED_BLOCKS: List[shared_memory.SharedMemory] = []  # repro-lint: ignore[RPR003] per-child-process by design


def _attach_array(spec: Dict[str, Any]) -> np.ndarray:
    # Spawned children inherit the parent's resource-tracker process, whose
    # registry is a set: the attach-side register is a no-op and the parent's
    # unlink() unregisters exactly once.  (Python 3.11 has no track= yet;
    # an explicit child-side unregister here would strip the parent's entry
    # and make its unlink() double-unregister.)
    block = shared_memory.SharedMemory(name=spec["name"])
    _ATTACHED_BLOCKS.append(block)
    return np.ndarray(
        tuple(spec["shape"]), dtype=np.dtype(spec["dtype"]), buffer=block.buf
    )


def attach_dataset(spec: Dict[str, Any]) -> ClassificationDataset:
    """Rebuild a dataset in a child as zero-copy views over shared memory."""
    if spec["kind"] == "csr":
        import scipy.sparse as sp

        xs = spec["X"]
        X = sp.csr_matrix(
            (
                _attach_array(xs["data"]),
                _attach_array(xs["indices"]),
                _attach_array(xs["indptr"]),
            ),
            shape=tuple(xs["shape"]),
        )
    else:
        X = _attach_array(spec["X"])
    return ClassificationDataset(
        X,
        _attach_array(spec["y"]),
        spec["n_classes"],
        name=spec["name"],
        metadata=dict(spec["metadata"]),
    )


# ---------------------------------------------------------------------------
# Slab transport: one rank-ordered exchange, arrays through shared memory
# ---------------------------------------------------------------------------
class ProcessTransportError(RuntimeError):
    """A worker process failed (exception in a child, protocol desync)."""


#: slab offsets are multiples of this, so array views are aligned
_SLAB_ALIGN = 64

#: what crosses the pipe for one rank's payload: the name of the block its
#: arrays sit in (``None`` without arrays) and the pickled structure
_Descriptor = Tuple[Optional[str], bytes]


class _SlabPickler(pickle.Pickler):
    """Pickles a payload's structure and lays its arrays out in a slab.

    Every ``ndarray`` becomes a persistent id ``(offset, shape, dtype,
    order)``; the arrays themselves are kept in ``arrays`` for the caller to
    write once the total size (``nbytes``) is known.
    """

    def __init__(self, file: io.BytesIO) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arrays: List[Tuple[int, str, np.ndarray]] = []
        self.nbytes = 0

    def persistent_id(self, obj: Any) -> Optional[tuple]:
        if type(obj) is not np.ndarray:
            return None
        offset = -(-self.nbytes // _SLAB_ALIGN) * _SLAB_ALIGN
        flags = obj.flags
        order = "F" if flags.f_contiguous and not flags.c_contiguous else "C"
        self.arrays.append((offset, order, obj))
        self.nbytes = offset + obj.nbytes
        return (offset, obj.shape, obj.dtype, order)


class _SlabUnpickler(pickle.Unpickler):
    """Rebuilds a payload, copying each array out of the sender's slab."""

    def __init__(self, file: io.BytesIO, buf: Optional[memoryview]) -> None:
        super().__init__(file)
        self._buf = buf
        self.nbytes = 0

    def persistent_load(self, pid: tuple) -> np.ndarray:
        offset, shape, dtype, order = pid
        array = np.ndarray(
            shape, dtype=dtype, buffer=self._buf, offset=offset, order=order
        ).copy(order)
        self.nbytes += array.nbytes
        return array


class _Transport:
    """The exchange every rank calls symmetrically (see *Slab transport* in
    the module docstring).

    ``allgather`` returns the per-rank values in rank order — what makes the
    left-fold reductions downstream bit-identical to the event engine —
    with a rank's own value handed back as is and every other one a private
    copy.

    ``active`` is toggled by the runtime around each fit; while inactive the
    cluster runs its simulated (local) path, which is how the same cluster
    object also serves async solvers that cannot run SPMD.
    """

    rank: int = 0
    n_ranks: int = 1

    def __init__(self) -> None:
        self.active = False
        self.seq = 0
        self.wall: Optional[WorkerTimeline] = None
        #: per fit: bytes written to + copied from slabs (``seq`` is the
        #: number of exchanges made)
        self.bytes_exchanged = 0

    def reset(self, wall: Optional[WorkerTimeline]) -> None:
        self.seq = 0
        self.wall = wall
        self.bytes_exchanged = 0

    def counters(self) -> Dict[str, int]:
        return {
            "rank": self.rank,
            "exchanges": self.seq,
            "bytes": self.bytes_exchanged,
        }

    def allgather(self, value: Any, *, label: str = "allgather") -> List[Any]:
        t0 = time.perf_counter()  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        parts = self._exchange(value)
        self.seq += 1
        if self.wall is not None:
            self.wall.advance(time.perf_counter() - t0, "comm", label)  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        return parts

    def _exchange(self, value: Any) -> List[Any]:
        raise NotImplementedError

    def _own_slab(self, nbytes: int) -> shared_memory.SharedMemory:
        """This rank's slab ``seq % 2``, holding at least ``nbytes``."""
        raise NotImplementedError

    def _peer_slab(self, rank: int, name: str) -> shared_memory.SharedMemory:
        """Slab ``seq % 2`` of ``rank``, which its descriptor says is block
        ``name``."""
        raise NotImplementedError

    def _publish(self, value: Any) -> _Descriptor:
        """Write ``value``'s arrays to this rank's slab; the rest is the
        descriptor."""
        body = io.BytesIO()
        pickler = _SlabPickler(body)
        pickler.dump(value)
        if not pickler.arrays:
            return None, body.getvalue()
        block = self._own_slab(pickler.nbytes)
        for offset, order, array in pickler.arrays:
            np.ndarray(
                array.shape, dtype=array.dtype, buffer=block.buf,
                offset=offset, order=order,
            )[...] = array
            self.bytes_exchanged += array.nbytes
        return block.name, body.getvalue()

    def _collect(self, rank: int, descriptor: _Descriptor) -> Any:
        """Rebuild ``rank``'s value from its descriptor and its slab."""
        name, body = descriptor
        buf = None if name is None else self._peer_slab(rank, name).buf
        unpickler = _SlabUnpickler(io.BytesIO(body), buf)
        value = unpickler.load()
        self.bytes_exchanged += unpickler.nbytes
        return value


class MasterTransport(_Transport):
    """Rank 0's side of the star: owned by the parent's :class:`ProcessRuntime`."""

    def __init__(self, runtime: "ProcessRuntime") -> None:
        super().__init__()
        self._runtime = weakref.proxy(runtime)
        self.rank = 0
        self.n_ranks = runtime.n_ranks

    def _own_slab(self, nbytes: int) -> shared_memory.SharedMemory:
        return self._runtime.arena.slab(0, self.seq % 2, nbytes)

    def _peer_slab(self, rank: int, name: str) -> shared_memory.SharedMemory:
        # The parent created every slab, so it never attaches by name.
        return self._runtime.arena.slab(rank, self.seq % 2)

    def _recv_tx(self, rank: int) -> Any:
        tag, seq, payload = self._runtime.recv_from(rank)
        while tag == "grow" and seq == self.seq:
            block = self._runtime.arena.slab(rank, seq % 2, payload)
            self._runtime.send_to(rank, ("slab", seq, block.name))
            tag, seq, payload = self._runtime.recv_from(rank)
        if tag == "error":
            raise ProcessTransportError(
                f"worker process {rank} failed:\n{payload}"
            )
        if tag != "tx" or seq != self.seq:
            raise ProcessTransportError(
                f"worker {rank} desynchronized: expected tx #{self.seq}, "
                f"got {tag!r} #{seq}"
            )
        return payload

    def _exchange(self, value: Any) -> List[Any]:
        if self.n_ranks == 1:
            return [value]
        descriptors: List[Optional[_Descriptor]] = [self._publish(value)]
        for rank in range(1, self.n_ranks):
            descriptors.append(self._recv_tx(rank))
        for rank in range(1, self.n_ranks):
            others = list(descriptors)
            others[rank] = None  # a rank keeps its own value
            self._runtime.send_to(rank, ("tx", self.seq, others))
        return [value] + [
            self._collect(rank, descriptors[rank])
            for rank in range(1, self.n_ranks)
        ]


class ChildTransport(_Transport):
    """A child rank's side of the star (one duplex pipe to the parent)."""

    def __init__(self, rank: int, n_ranks: int, conn, timeout: float) -> None:
        super().__init__()
        self.rank = int(rank)
        self.n_ranks = int(n_ranks)
        self.conn = conn
        self.timeout = float(timeout)
        #: attached slabs by (rank, parity); they live as long as the pool
        self._attached: Dict[Tuple[int, int], shared_memory.SharedMemory] = {}

    def _recv(self) -> Any:
        deadline = time.monotonic() + self.timeout  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        parent = mp.parent_process()
        while not self.conn.poll(_POLL_INTERVAL):
            if parent is not None and not parent.is_alive():
                sys.exit(1)  # orphaned: the driver is gone
            if time.monotonic() > deadline:  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
                raise ProcessTransportError(
                    f"rank {self.rank}: no message from the driver within "
                    f"{self.timeout:.0f}s"
                )
        try:
            return self.conn.recv()
        except EOFError:
            sys.exit(1)

    def _recv_tagged(self, expected: str) -> Any:
        tag, seq, payload = self._recv()
        if tag != expected or seq != self.seq:
            raise ProcessTransportError(
                f"rank {self.rank} desynchronized: expected {expected} "
                f"#{self.seq}, got {tag!r} #{seq}"
            )
        return payload

    def _own_slab(self, nbytes: int) -> shared_memory.SharedMemory:
        block = self._attached.get((self.rank, self.seq % 2))
        if block is not None and block.size >= nbytes:
            return block
        self.conn.send(("grow", self.seq, nbytes))
        return self._peer_slab(self.rank, self._recv_tagged("slab"))

    def _peer_slab(self, rank: int, name: str) -> shared_memory.SharedMemory:
        key = (rank, self.seq % 2)
        block = self._attached.get(key)
        if block is None or block.name != name:
            if block is not None:
                block.close()
            # Same resource-tracker reasoning as _attach_array.
            block = self._attached[key] = shared_memory.SharedMemory(name=name)
        return block

    def _exchange(self, value: Any) -> List[Any]:
        self.conn.send(("tx", self.seq, self._publish(value)))
        descriptors = self._recv_tagged("tx")
        return [
            value if rank == self.rank else self._collect(rank, descriptor)
            for rank, descriptor in enumerate(descriptors)
        ]


# ---------------------------------------------------------------------------
# The per-rank role: SPMD map_workers + wall-clock timelines
# ---------------------------------------------------------------------------
class ProcessRole:
    """What one rank does during an SPMD fit.

    Attached to a cluster (parent or rank-local replica); while ``active``,
    :meth:`map_workers` computes only this rank's worker and allgathers
    ``(result, modelled_time, flops)`` triples so every rank binds the full
    per-worker result list — and advances the *same* modelled clocks the
    ``event`` engine would.  This is the only point at which a schedule's
    data crosses between ranks: whatever a plan's collectives fold is
    already replicated here.  (Epoch records, which are not part of the
    schedule, exchange their partials through ``cluster.map_shards``.)
    """

    def __init__(self, transport: _Transport) -> None:
        self.transport = transport
        self.rank = transport.rank
        self.wall = WorkerTimeline(self.rank)

    @property
    def active(self) -> bool:
        return self.transport.active

    def activate(self) -> None:
        self.wall = WorkerTimeline(self.rank)
        self.transport.reset(self.wall)
        self.transport.active = True

    def deactivate(self) -> None:
        self.transport.active = False

    def map_workers(self, cluster, fn) -> List[Any]:
        local = cluster.workers[self.rank]
        t0 = time.perf_counter()  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        result = fn(local)
        self.wall.advance(time.perf_counter() - t0, "busy", "map_workers")  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        entries = self.transport.allgather(
            (result, local.modelled_compute_time(), local.flops_since_mark()),
            label="map_workers",
        )
        if cluster._process_flops is None:
            cluster._process_flops = np.zeros(cluster.n_workers)
        for wid, (_, _, flops) in enumerate(entries):
            cluster._process_flops[wid] += flops
        cluster.engine.run_round(
            {wid: t for wid, (_, t, _) in enumerate(entries)}, category="compute"
        )
        return [result for result, _, _ in entries]


# ---------------------------------------------------------------------------
# Parent-side runtime: spawn, dispatch fits, chaos detection, teardown
# ---------------------------------------------------------------------------
class ProcessRuntime:
    """Drives ``n_workers - 1`` spawned worker processes for one cluster.

    Created lazily by ``SimulatedCluster(engine="process")`` in the parent.
    Children are spawned on the first fit and reused across fits; a detected
    worker loss tears the pool down (the next fit respawns it).
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.n_ranks = cluster.n_workers
        self.timeout = DEFAULT_SYNC_TIMEOUT
        self.in_fit = False
        self.role = ProcessRole(MasterTransport(self))
        self.arena: Optional[ShmArena] = None
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        self._conns: Dict[int, Any] = {}
        self.child_info: Dict[int, dict] = {}
        #: rank -> shared-memory spec of the shard placed for that child
        self.shard_specs: Dict[int, dict] = {}
        self._finalizer = weakref.finalize(self, _finalize_runtime, self)
        cluster._process_role = self.role

    # -- lifecycle ---------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs) or self.n_ranks == 1

    @property
    def shm_placements(self) -> int:
        return self.arena.placements if self.arena is not None else 0

    @property
    def shm_bytes(self) -> int:
        return self.arena.bytes_placed if self.arena is not None else 0

    def worker_pids(self) -> Dict[int, int]:
        """rank -> OS pid of every live *spawned* worker process.

        Rank 0 is this process (the master, co-located with worker 0 as in
        the paper's deployment) and is deliberately not listed: the chaos
        harness targets these pids with ``kill -9``, and killing rank 0 is
        killing the caller.
        """
        return {r: p.pid for r, p in self._procs.items() if p.is_alive()}

    def ensure_started(self) -> None:
        if self._procs or self.n_ranks == 1:
            return
        cluster = self.cluster
        ctx = mp.get_context("spawn")
        if self.arena is None:
            self.arena = ShmArena()
        arena = self.arena
        # Rank 0 is this process and computes on its in-memory shard; each
        # child needs its own shard only.
        self.shard_specs = {
            rank: arena.place_dataset(cluster.workers[rank].shard)
            for rank in range(1, self.n_ranks)
        }
        session = {
            "backend": cluster.backend.name,
            "precision": default_precision(),
            "engine": "process",
        }
        base = {
            "n_workers": self.n_ranks,
            "precision": cluster.precision,
            "shard_sizes": cluster.worker_sizes(),
            "loss": cluster._loss_factory_spec(),
            "network": cluster.network,
            "devices": cluster.devices,
            "session": session,
            "timeout": self.timeout,
        }
        try:
            pickle.dumps(base)
        except Exception as exc:
            raise ValueError(
                "engine='process' must ship the cluster configuration to "
                f"spawned workers, but it does not pickle: {exc!r}. Use a "
                "named loss ('softmax'/'logistic') or a module-level factory."
            ) from exc
        for rank in range(1, self.n_ranks):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(rank, child_conn, dict(base, shard=self.shard_specs[rank])),
                daemon=True,
                name=f"repro-worker-{rank}",
            )
            proc.start()
            child_conn.close()
            self._procs[rank] = proc
            self._conns[rank] = parent_conn
        for rank in range(1, self.n_ranks):
            tag, _, info = self.recv_from(rank)
            if tag != "ready":
                raise ProcessTransportError(
                    f"worker {rank} failed to start: {info}"
                )
            self.child_info[rank] = info

    def shutdown(self, *, kill: bool = False) -> None:
        """Stop children and release shared memory; safe to call twice."""
        for rank, conn in list(self._conns.items()):
            proc = self._procs.get(rank)
            if not kill and proc is not None and proc.is_alive():
                try:
                    conn.send(("cmd", 0, ("stop", None)))
                except (BrokenPipeError, OSError):
                    pass
        for proc in list(self._procs.values()):
            if kill:
                # A torn-down pool's children may sit in an exchange rank 0
                # will never finish; joining first would wait out their own
                # hung-worker watchdog before the caller sees its error.
                proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._procs = {}
        self._conns = {}
        self.child_info = {}
        self.shard_specs = {}
        if self.arena is not None:
            self.arena.close()
            self.arena = None

    # -- wire primitives (used by MasterTransport) --------------------------
    def send_to(self, rank: int, message) -> None:
        try:
            self._conns[rank].send(message)
        except (BrokenPipeError, OSError):
            self._lost(rank, reason_suffix="its pipe closed mid-send")

    def recv_from(self, rank: int):
        conn = self._conns[rank]
        proc = self._procs[rank]
        deadline = time.monotonic() + self.timeout  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        while not conn.poll(_POLL_INTERVAL):
            if not proc.is_alive():
                self._lost(rank)
            if time.monotonic() > deadline:  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
                self._lost(
                    rank,
                    reason_suffix=(
                        f"it sent nothing for {self.timeout:.0f}s "
                        "(hung worker watchdog)"
                    ),
                )
        try:
            return conn.recv()
        except (EOFError, OSError):
            # EOFError: clean close; ConnectionResetError/OSError: the peer
            # was SIGKILLed with bytes in flight.  Same structured loss.
            self._lost(rank)

    def _lost(self, rank: int, *, reason_suffix: Optional[str] = None) -> None:
        """Raise the structured loss for a dead/hung worker process.

        The active plan's ``on_failure`` policy shapes the message: unlike
        the modelled fault injector, a killed OS process cannot be restarted
        mid-collective, so every policy ends the run — but each reports *its
        own* reason, which is what the chaos tests pin down.
        """
        policy = getattr(self.cluster, "_fault_policy", "raise")
        proc = self._procs.get(rank)
        if proc is not None and proc.exitcode is None:
            proc.join(timeout=0.5)  # reap so the exit code is readable
        exitcode = proc.exitcode if proc is not None else None
        died = reason_suffix or (
            f"its process died (exit code {exitcode})"
        )
        if policy == "stall":
            reason = (
                f"{died}; a real OS process cannot restart — "
                "policy 'stall' cannot complete"
            )
        else:
            reason = f"{died} at a synchronization point (policy 'raise')"
        error = WorkerLostError(
            rank, self.cluster.clock.time, reason=reason
        )
        # The surviving replicas are mid-collective and cannot make
        # progress; tear the pool down so the next fit starts clean.
        self.shutdown(kill=True)
        raise error

    # -- fit dispatch --------------------------------------------------------
    def should_dispatch(self, solver) -> bool:
        """Whether ``solver.fit`` should run SPMD on real processes.

        Asynchronous solvers (event-queue schedules, not round plans) fall
        back to the in-process simulated path on the same cluster.
        """
        return (not self.in_fit) and getattr(
            solver, "supports_process_engine", True
        )

    def run_fit(self, solver, cluster, *, test=None, w0=None, reset_cluster=True):
        self.ensure_started()
        dead = [r for r, p in self._procs.items() if not p.is_alive()]
        if dead:
            with cluster.fault_policy(solver.on_failure):
                self._lost(dead[0])
        # Every replica runs the same fit: each evaluates the epoch record on
        # its own shard and the partials meet in one exchange per record.
        w0_wire = None if w0 is None else np.asarray(w0, dtype=np.float64)
        command = (
            "fit",
            {"solver": solver, "w0": w0_wire, "reset": reset_cluster},
        )
        for rank in range(1, self.n_ranks):
            self.send_to(rank, ("cmd", 0, command))
        self.in_fit = True
        self.role.activate()
        t0 = time.perf_counter()  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        try:
            trace = solver.fit(
                cluster, test=test, w0=w0, reset_cluster=reset_cluster
            )
        except BaseException:
            self.shutdown(kill=True)
            raise
        finally:
            self.in_fit = False
            self.role.deactivate()
        elapsed = time.perf_counter() - t0  # repro-lint: ignore[RPR002] measured wall-clock is this engine's contract
        walls: Dict[int, dict] = {0: self.role.wall.to_dict()}
        transports = [self.role.transport.counters()]
        for rank in range(1, self.n_ranks):
            tag, _, payload = self.recv_from(rank)
            if tag == "error":
                self.shutdown(kill=True)
                raise ProcessTransportError(
                    f"worker process {rank} failed:\n{payload}"
                )
            if tag != "done":  # pragma: no cover - defensive
                self.shutdown(kill=True)
                raise ProcessTransportError(
                    f"worker {rank}: expected fit completion, got {tag!r}"
                )
            walls[rank] = payload["wall"]
            transports.append(payload["transport"])
        rows = [walls[r] for r in sorted(walls)]
        trace.info["wall_clock"] = {
            "engine": "process",
            "n_processes": self.n_ranks,
            "start_method": "spawn",
            "elapsed_seconds": float(elapsed),
            "workers": rows,
            "summary": wall_clock_summary(rows),
            "transport": transports,
        }
        return trace


def _finalize_runtime(runtime: ProcessRuntime) -> None:
    try:
        runtime.shutdown(kill=True)
    except Exception:  # pragma: no cover - interpreter teardown # repro-lint: ignore[RPR004]
        pass


# ---------------------------------------------------------------------------
# Child bootstrap
# ---------------------------------------------------------------------------
def _worker_main(rank: int, conn, bootstrap: Dict[str, Any]) -> None:
    """Entry point of a spawned worker process (top-level: spawn-picklable).

    Builds this rank's replica of the cluster over its shared-memory shard,
    then serves ``fit`` commands until stopped.  Session defaults are applied
    from explicit bootstrap values — under ``spawn`` nothing is inherited,
    and nothing is read from the parent's module globals.
    """
    global _IN_WORKER_PROCESS
    _IN_WORKER_PROCESS = True
    try:
        from repro.backend import set_default_backend, set_default_precision
        from repro.distributed.cluster import SimulatedCluster
        from repro.harness.config import set_default_engine

        session = bootstrap["session"]
        set_default_backend(session["backend"])
        set_default_precision(session["precision"])
        set_default_engine(session["engine"])

        # This rank's shard as zero-copy views; the others' as row counts.
        shards = list(bootstrap["shard_sizes"])
        shards[rank] = attach_dataset(bootstrap["shard"])
        cluster = SimulatedCluster(
            None,
            bootstrap["n_workers"],
            loss=bootstrap["loss"],
            network=bootstrap["network"],
            device=bootstrap["devices"],
            backend=session["backend"],
            precision=bootstrap["precision"],
            engine="process",
            shards=shards,
        )
        transport = ChildTransport(
            rank, bootstrap["n_workers"], conn, bootstrap["timeout"]
        )
        role = ProcessRole(transport)
        cluster._process_role = role
        conn.send(
            (
                "ready",
                0,
                {
                    "rank": rank,
                    "pid": os.getpid(),
                    "start_method": mp.get_start_method(),
                    "session": dict(session),
                    "attached": sorted(block.name for block in _ATTACHED_BLOCKS),
                },
            )
        )
    except Exception:
        try:
            conn.send(("error", 0, traceback.format_exc()))
        finally:
            return

    while True:
        try:
            tag, _, payload = transport._recv()
        except ProcessTransportError:
            return
        if tag != "cmd":
            conn.send(("error", 0, f"rank {rank}: unexpected message {tag!r}"))
            continue
        op, arg = payload
        if op == "stop":
            return
        if op != "fit":
            conn.send(("error", 0, f"rank {rank}: unknown command {op!r}"))
            continue
        solver = arg["solver"]
        role.activate()
        try:
            solver.fit(
                cluster,
                test=None,
                w0=arg["w0"],
                reset_cluster=arg["reset"],
            )
        except SystemExit:
            raise
        except BaseException:
            role.deactivate()
            try:
                conn.send(("error", 0, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
            continue
        role.deactivate()
        try:
            conn.send(
                (
                    "done",
                    0,
                    {
                        "wall": role.wall.to_dict(),
                        "transport": transport.counters(),
                    },
                )
            )
        except (BrokenPipeError, OSError):
            return
