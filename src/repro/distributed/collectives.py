"""Alternative collective-communication algorithms and their cost models.

The base :class:`~repro.distributed.network.NetworkModel` charges binomial-tree
collectives (the paper's ``O(log N)`` claim).  Real MPI/NCCL stacks switch
algorithms with message size and node count — latency-bound small messages
favour trees or recursive doubling, bandwidth-bound large messages favour
rings — and the choice visibly moves the epoch-time breakdown of every method
in this library.  :class:`TunedNetworkModel` exposes that choice as a
configuration knob so the communication-sensitivity ablation can sweep it
without touching any solver code.

Cost conventions (alpha-beta model, ``alpha`` = latency, ``beta`` = 1/bandwidth):

* tree reduce/broadcast: ``ceil(log2 N) * (alpha + n*beta)``
* recursive-doubling allreduce: ``ceil(log2 N) * (alpha + n*beta)``
* ring allreduce: ``2 (N-1) * (alpha + (n/N)*beta)`` — bandwidth optimal
* ring allgather: ``(N-1) * (alpha + (n/N)*beta)``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.distributed.network import NetworkModel

#: Algorithms understood by :class:`TunedNetworkModel` for allreduce.
ALLREDUCE_ALGORITHMS = ("tree", "ring", "recursive_doubling")

#: Algorithms understood by :class:`TunedNetworkModel` for allgather.
ALLGATHER_ALGORITHMS = ("ring", "bruck")


def tree_allreduce_time(network: NetworkModel, n_workers: int, nbytes: float) -> float:
    """Reduce-then-broadcast over a binomial tree (the base model's default)."""
    return network.reduce(n_workers, nbytes) + network.broadcast(n_workers, nbytes)


def recursive_doubling_allreduce_time(
    network: NetworkModel, n_workers: int, nbytes: float
) -> float:
    """Recursive-doubling allreduce: ``log2 N`` exchange rounds of the full buffer."""
    if n_workers <= 1:
        return 0.0
    rounds = int(math.ceil(math.log2(n_workers)))
    return rounds * network.point_to_point(nbytes)


def ring_allreduce_time(network: NetworkModel, n_workers: int, nbytes: float) -> float:
    """Bandwidth-optimal ring allreduce (reduce-scatter + allgather phases)."""
    if n_workers <= 1:
        return 0.0
    chunk = nbytes / n_workers
    return 2.0 * (n_workers - 1) * network.point_to_point(chunk)


def ring_allgather_time(network: NetworkModel, n_workers: int, nbytes_per_worker: float) -> float:
    """Ring allgather: ``N - 1`` steps, each moving one worker's buffer."""
    if n_workers <= 1:
        return 0.0
    return (n_workers - 1) * network.point_to_point(nbytes_per_worker)


def bruck_allgather_time(network: NetworkModel, n_workers: int, nbytes_per_worker: float) -> float:
    """Bruck allgather: ``log2 N`` rounds with doubling payloads (latency optimal)."""
    if n_workers <= 1:
        return 0.0
    rounds = int(math.ceil(math.log2(n_workers)))
    total = 0.0
    payload = nbytes_per_worker
    for _ in range(rounds):
        total += network.point_to_point(payload)
        payload = min(payload * 2, nbytes_per_worker * n_workers)
    return total


@dataclass(frozen=True)
class TunedNetworkModel(NetworkModel):
    """A :class:`NetworkModel` with selectable allreduce / allgather algorithms.

    Attributes
    ----------
    allreduce_algorithm:
        ``"tree"`` (default, reduce + broadcast), ``"ring"`` or
        ``"recursive_doubling"``.
    allgather_algorithm:
        ``"ring"`` (default) or ``"bruck"``.
    """

    allreduce_algorithm: str = "tree"
    allgather_algorithm: str = "ring"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.allreduce_algorithm not in ALLREDUCE_ALGORITHMS:
            raise ValueError(
                f"unknown allreduce algorithm {self.allreduce_algorithm!r}; "
                f"expected one of {ALLREDUCE_ALGORITHMS}"
            )
        if self.allgather_algorithm not in ALLGATHER_ALGORITHMS:
            raise ValueError(
                f"unknown allgather algorithm {self.allgather_algorithm!r}; "
                f"expected one of {ALLGATHER_ALGORITHMS}"
            )

    def allreduce(self, n_workers: int, nbytes: float) -> float:
        if self.allreduce_algorithm == "ring":
            return ring_allreduce_time(self, n_workers, nbytes)
        if self.allreduce_algorithm == "recursive_doubling":
            return recursive_doubling_allreduce_time(self, n_workers, nbytes)
        return tree_allreduce_time(self, n_workers, nbytes)

    def allgather(self, n_workers: int, nbytes_per_worker: float) -> float:
        if self.allgather_algorithm == "bruck":
            return bruck_allgather_time(self, n_workers, nbytes_per_worker)
        return ring_allgather_time(self, n_workers, nbytes_per_worker)


def tuned_network(
    base: NetworkModel,
    *,
    allreduce_algorithm: str = "tree",
    allgather_algorithm: str = "ring",
) -> TunedNetworkModel:
    """Copy an existing network model with different collective algorithms."""
    return TunedNetworkModel(
        name=f"{base.name}[{allreduce_algorithm}]",
        latency=base.latency,
        bandwidth=base.bandwidth,
        allreduce_algorithm=allreduce_algorithm,
        allgather_algorithm=allgather_algorithm,
    )

