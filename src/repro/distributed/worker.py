"""A simulated compute node holding one shard of the training data."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.backend import ArrayBackend, BackendLike, get_backend
from repro.datasets.base import ClassificationDataset
from repro.distributed.device import DeviceModel
from repro.objectives.base import Objective
from repro.solvers.base import CountingObjective


class Worker:
    """One node of the simulated cluster.

    Attributes
    ----------
    worker_id:
        0-based rank; rank 0 doubles as the master, as in the paper.
    shard:
        This worker's partition ``D_i`` of the training data (``None`` for a
        worker held elsewhere, see :meth:`elsewhere`).
    objective:
        Counting wrapper around the worker's local objective ``f_i``; the
        wrapper's FLOP counter feeds the device cost model (``None`` for a
        worker held elsewhere).
    device:
        Device cost model used to convert FLOPs into modelled compute time.
    backend:
        Array backend the worker's state vectors (and its objective) live on;
        defaults to the objective's backend, so per-worker x-updates run on
        the configured device.
    state:
        Algorithm-specific per-worker state (e.g. ADMM's ``x_i``/``y_i``).
    """

    def __init__(
        self,
        worker_id: int,
        shard: Optional[ClassificationDataset],
        objective: Optional[Objective],
        device: DeviceModel,
        *,
        backend: BackendLike = None,
    ):
        if worker_id < 0:
            raise ValueError(f"worker_id must be >= 0, got {worker_id}")
        self.worker_id = int(worker_id)
        self.shard = shard
        if objective is not None and not isinstance(objective, CountingObjective):
            objective = CountingObjective(objective)
        self.objective = objective
        self.device = device
        if backend is None:
            self.backend: ArrayBackend = self.objective.backend
        else:
            self.backend = get_backend(backend)
        self.state: Dict[str, object] = {}
        self._flops_mark = 0.0
        if shard is not None:
            self.n_local_samples = shard.n_samples
            self.dim = self.objective.dim

    @classmethod
    def elsewhere(
        cls,
        worker_id: int,
        n_samples: int,
        dim: int,
        device: DeviceModel,
        *,
        backend: BackendLike,
    ) -> "Worker":
        """A worker whose shard another process holds.

        A process-engine replica keeps what schedules and solvers read of the
        other ranks' workers — the row count and the problem dimension — and
        neither their data nor an objective.
        """
        worker = cls(worker_id, None, None, device, backend=backend)
        worker.n_local_samples = int(n_samples)
        worker.dim = int(dim)
        return worker

    # -- modelled-time accounting ------------------------------------------
    @property
    def flops(self) -> float:
        """FLOPs charged to this worker's objective (none when held elsewhere)."""
        return 0.0 if self.objective is None else self.objective.flops

    def mark_flops(self) -> None:
        """Record the current FLOP counter; the next :meth:`modelled_compute_time`
        call measures work done since this mark."""
        self._flops_mark = self.flops

    def flops_since_mark(self) -> float:
        return self.flops - self._flops_mark

    def modelled_compute_time(self) -> float:
        """Modelled seconds for the work performed since the last mark."""
        return self.device.compute_time(self.flops_since_mark())

    # -- state helpers -------------------------------------------------------
    def get_vector(self, key: str, default: Optional[np.ndarray] = None) -> np.ndarray:
        value = self.state.get(key, default)
        if value is None:
            raise KeyError(f"worker {self.worker_id} has no state {key!r}")
        return self.backend.as_vector(value, name=key)

    def set_vector(self, key: str, value: np.ndarray) -> None:
        """Store ``value`` under ``key`` as the object itself, not a copy.

        State vectors are immutable by contract: every writer stores a
        freshly computed vector and nothing updates one in place, so no
        copy is needed, and a stored iterate keeps the identity the
        objectives' per-iterate forward caches key on.
        """
        self.state[key] = self.backend.as_vector(value, name=key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Worker(id={self.worker_id}, n_local={self.n_local_samples}, "
            f"dim={self.dim})"
        )
