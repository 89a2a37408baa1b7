"""Communicator: collective operations with traffic and time accounting.

The communicator performs the actual data movement in-process (plain NumPy)
and *models* what the same collective would cost on the configured
interconnect, advancing the cluster's :class:`~repro.utils.timer.SimulatedClock`.
That holds on every engine: on the process engine each rank already holds the
full rank-ordered buffer list when a collective is issued (the ranks exchange
local-step results in ``map_workers``, nowhere else), so a collective is the
same left-fold and the same accounting there, and nothing moves twice.
It also counts *communication rounds*: the paper's central systems claim is
that Newton-ADMM needs exactly one round (a gather + a scatter) per outer
iteration versus GIANT's three; integration tests assert those counts through
this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.backend.ops import copy_array as _copy
from repro.backend.ops import ensure_float_array
from repro.distributed.engine import EventEngine
from repro.distributed.faults import PartitionError
from repro.distributed.network import NetworkModel


@dataclass
class CommunicationLog:
    """Running totals of communication activity."""

    n_rounds: int = 0
    n_collectives: int = 0
    bytes_transferred: float = 0.0
    modelled_time: float = 0.0
    by_operation: Dict[str, int] = field(default_factory=dict)

    def record(self, operation: str, nbytes: float, seconds: float, *, new_round: bool) -> None:
        self.n_collectives += 1
        if new_round:
            self.n_rounds += 1
        self.bytes_transferred += nbytes
        self.modelled_time += seconds
        self.by_operation[operation] = self.by_operation.get(operation, 0) + 1


def _nbytes(array) -> float:
    if hasattr(array, "nbytes"):  # numpy / cupy
        return float(array.nbytes)
    if hasattr(array, "element_size"):  # torch
        return float(array.numel() * array.element_size())
    return float(np.asarray(array).nbytes)


class Communicator:
    """Collectives over ``n_workers`` simulated workers.

    Parameters
    ----------
    n_workers:
        Number of workers (the master is co-located with worker 0, as in the
        paper's implementation).
    network:
        Interconnect cost model.
    engine:
        The cluster's :class:`~repro.distributed.engine.EventEngine`, whose
        clock receives the modelled communication time.  Every collective is
        a barrier event on it: all workers wait to the synchronization point
        (fast workers accrue ``wait`` segments) and each is charged the
        collective's modelled time.

    Notes
    -----
    A *round* is a synchronization point in the algorithm: a gather+scatter
    pair executed back-to-back counts as one round (use
    ``joint_with_previous=True`` on the second collective), matching the
    paper's "one round of communication per iteration" accounting.
    """

    def __init__(
        self,
        n_workers: int,
        network: NetworkModel,
        engine: EventEngine,
        *,
        fault_state=None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.network = network
        self.engine = engine
        self.clock = engine.clock
        #: optional :class:`~repro.distributed.faults.FaultInjector`; when its
        #: model declares network partitions, every collective asserts that
        #: all workers are reachable at the collective instant and raises a
        #: structured PartitionError otherwise.  The schedule executor's
        #: fault guard normally stalls (or raises) *before* the collective
        #: runs, so this is the backstop that keeps imperative callers from
        #: silently communicating across a cut link.
        self.fault_state = fault_state
        self.log = CommunicationLog()

    # -- internals -------------------------------------------------------
    def _check_reachable(self) -> None:
        """Raise PartitionError when a worker sits behind an open cut."""
        fs = self.fault_state
        if fs is None or not fs.has_partitions:
            return
        now = self.clock.time
        for wid in range(self.n_workers):
            if fs.is_cut(wid, now):
                fs.note_partition(wid, fs.cut_start(wid, now))
                raise PartitionError(
                    int(wid),
                    now,
                    heals_at=fs.heal_time(wid, now),
                    round=fs.round,
                    reason="collective participant unreachable (network partition)",
                )

    def _account(
        self,
        operation: str,
        nbytes: float,
        seconds: float,
        *,
        joint_with_previous: bool,
    ) -> None:
        self._check_reachable()
        self.engine.collective(
            seconds, category="communication", label=operation
        )
        self.log.record(
            operation, nbytes, seconds, new_round=not joint_with_previous
        )

    @staticmethod
    def _check_buffers(buffers: Sequence[np.ndarray], n_expected: int) -> List[np.ndarray]:
        if len(buffers) != n_expected:
            raise ValueError(
                f"expected {n_expected} buffers (one per worker), got {len(buffers)}"
            )
        # Backend-native float buffers (numpy/cupy/torch) pass through
        # untouched so collectives never bounce device arrays through host
        # memory; host integer/untyped inputs keep the historical float64
        # coercion (integer allreduce would otherwise crash or change
        # semantics).
        return [ensure_float_array(b) for b in buffers]

    # -- collectives -------------------------------------------------------
    def gather(
        self,
        buffers: Sequence[np.ndarray],
        *,
        joint_with_previous: bool = False,
    ) -> List[np.ndarray]:
        """Gather one buffer per worker at the master."""
        n = self.n_workers
        buffers = self._check_buffers(buffers, n)
        per_worker = max(_nbytes(b) for b in buffers)
        seconds = self.network.gather(n, per_worker)
        self._account("gather", per_worker * n, seconds,
                      joint_with_previous=joint_with_previous)
        return [_copy(b) for b in buffers]

    def scatter(
        self,
        buffers: Sequence[np.ndarray],
        *,
        joint_with_previous: bool = False,
    ) -> List[np.ndarray]:
        """Send a distinct buffer from the master to each worker."""
        n = self.n_workers
        buffers = self._check_buffers(buffers, n)
        per_worker = max(_nbytes(b) for b in buffers)
        seconds = self.network.scatter(n, per_worker)
        self._account("scatter", per_worker * n, seconds,
                      joint_with_previous=joint_with_previous)
        return [_copy(b) for b in buffers]

    def broadcast(
        self,
        buffer: np.ndarray,
        *,
        joint_with_previous: bool = False,
    ) -> List[np.ndarray]:
        """Replicate a master buffer on every worker."""
        n = self.n_workers
        buffer = ensure_float_array(buffer)
        seconds = self.network.broadcast(n, _nbytes(buffer))
        self._account("broadcast", _nbytes(buffer) * n, seconds,
                      joint_with_previous=joint_with_previous)
        return [_copy(buffer) for _ in range(n)]

    def allreduce(
        self,
        buffers: Sequence[np.ndarray],
        *,
        joint_with_previous: bool = False,
    ) -> np.ndarray:
        """Element-wise sum of one buffer per worker, result visible everywhere."""
        n = self.n_workers
        buffers = self._check_buffers(buffers, n)
        shapes = {b.shape for b in buffers}
        if len(shapes) != 1:
            raise ValueError(f"allreduce buffers must share a shape, got {shapes}")
        if len({str(b.dtype) for b in buffers}) > 1:
            # Mixed precisions: accumulate in float64 (the historical
            # behavior) rather than silently truncating to buffers[0]'s dtype.
            buffers = [
                b.astype(np.float64) if hasattr(b, "astype") else b.double()
                for b in buffers
            ]
        nbytes = _nbytes(buffers[0])
        seconds = self.network.allreduce(n, nbytes)
        self._account("allreduce", nbytes * n, seconds,
                      joint_with_previous=joint_with_previous)
        total = _copy(buffers[0])
        for b in buffers[1:]:
            total += b
        return total

    def allgather(
        self,
        buffers: Sequence[np.ndarray],
        *,
        joint_with_previous: bool = False,
    ) -> List[np.ndarray]:
        """Every worker receives every worker's buffer."""
        n = self.n_workers
        buffers = self._check_buffers(buffers, n)
        per_worker = max(_nbytes(b) for b in buffers)
        seconds = self.network.allgather(n, per_worker)
        self._account("allgather", per_worker * n, seconds,
                      joint_with_previous=joint_with_previous)
        return [_copy(b) for b in buffers]

    def reduce_scalar(
        self,
        values: Sequence[float],
        *,
        joint_with_previous: bool = False,
    ) -> float:
        """Sum one scalar per worker at the master."""
        n = self.n_workers
        if len(values) != n:
            raise ValueError(
                f"expected {n} scalars, got {len(values)}"
            )
        seconds = self.network.reduce(n, 8.0)
        self._account("reduce_scalar", 8.0 * n, seconds,
                      joint_with_previous=joint_with_previous)
        return float(np.sum(np.asarray(values, dtype=np.float64)))

    # -- reporting -------------------------------------------------------
    @property
    def rounds(self) -> int:
        return self.log.n_rounds

    def reset_log(self) -> None:
        self.log = CommunicationLog()
