"""Straggler and slowdown injection for the simulated cluster.

Synchronous methods (Newton-ADMM, GIANT, synchronous SGD) advance at the pace
of their slowest worker, so heterogeneity and transient slowdowns inflate the
modelled epoch time directly.  A :class:`StragglerModel` attached to a
:class:`~repro.distributed.cluster.SimulatedCluster` multiplies every worker's
modelled compute time by a per-round slowdown factor; the factors are drawn
from a configurable distribution (or fixed per worker for persistent
stragglers), deterministically from the model's seed.

This is the failure-injection knob used by the straggler-sensitivity ablation:
Newton-ADMM's single synchronization point per iteration makes it less exposed
to stragglers than GIANT's three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.utils.rng import check_random_state


@dataclass
class StragglerModel:
    """Per-round multiplicative compute slowdowns.

    Attributes
    ----------
    slowdown:
        Multiplier applied to a straggling worker's compute time (>= 1).
    probability:
        Probability that any given worker straggles in any given round
        (ignored for workers listed in ``persistent_stragglers``).
    persistent_stragglers:
        Worker ids that are *always* slowed down (models a thermally
        throttled or oversubscribed node).
    jitter:
        Standard deviation of a lognormal jitter applied to every worker every
        round (0 disables it); models background noise rather than outright
        stragglers.
    random_state:
        Seed for the per-round draws.
    """

    slowdown: float = 4.0
    probability: float = 0.0
    persistent_stragglers: Sequence[int] = field(default_factory=tuple)
    jitter: float = 0.0
    random_state: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {self.probability}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        self.persistent_stragglers = tuple(int(i) for i in self.persistent_stragglers)
        self._rng = check_random_state(self.random_state)
        self._round = 0
        self._draws = 0
        self._history: list = []

    def describe(self) -> dict:
        """JSON-serializable spec (recorded in cluster/profile provenance)."""
        return {
            "slowdown": self.slowdown,
            "probability": self.probability,
            "persistent_stragglers": list(self.persistent_stragglers),
            "jitter": self.jitter,
            "random_state": self.random_state,
        }

    # -- sampling ------------------------------------------------------------
    def _draw(self, n_workers: int) -> np.ndarray:
        """One round of per-worker factors; advances the RNG, records nothing."""
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        factors = np.ones(n_workers)
        if self.jitter > 0.0:
            factors *= self._rng.lognormal(mean=0.0, sigma=self.jitter, size=n_workers)
        if self.probability > 0.0:
            hit = self._rng.random(n_workers) < self.probability
            factors[hit] *= self.slowdown
        for worker_id in self.persistent_stragglers:
            if 0 <= worker_id < n_workers:
                factors[worker_id] *= self.slowdown
        return factors

    def sample_factors(self, n_workers: int) -> np.ndarray:
        """Slowdown factors (one per worker) for the next synchronization round."""
        factors = self._draw(n_workers)
        self._round += 1
        self._draws += 1
        self._history.append(factors.copy())
        return factors

    def factors_for(self, worker_ids: Sequence[int], n_workers: int) -> np.ndarray:
        """Slowdown factors for one query, keyed by ``worker_id``.

        One full round of ``n_workers`` factors is drawn and the entries for
        ``worker_ids`` are returned, so ``persistent_stragglers`` hit the
        *named* workers even when only a subset participates in the round
        (positional application of :meth:`sample_factors` mis-assigned them
        on subsets).  A full-cluster call consumes the RNG exactly like
        :meth:`sample_factors` always did, keeping existing runs reproducible.

        Accounting: every call counts one *draw*; only full-membership
        queries (``len(worker_ids) == n_workers`` — an actual synchronization
        round) count one *round*.  Asynchronous solvers query one worker per
        local cycle, which previously inflated ``summary()["rounds"]`` far
        beyond the number of synchronization rounds that actually happened.

        Only the factors actually *applied* (the selected entries) enter the
        history, so :meth:`summary` reflects delivered slowdowns and
        per-worker asynchronous schedules do not flood it with full phantom
        rounds.
        """
        ids = np.asarray([int(i) for i in worker_ids], dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= n_workers):
            raise ValueError(
                f"worker ids {sorted(set(ids.tolist()))} out of range for "
                f"{n_workers} workers"
            )
        selected = self._draw(n_workers)[ids]
        self._draws += 1
        if ids.size == n_workers:
            self._round += 1
        self._history.append(selected.copy())
        return selected

    # -- reporting -------------------------------------------------------
    @property
    def n_rounds(self) -> int:
        """Full-membership synchronization rounds sampled so far."""
        return self._round

    @property
    def n_draws(self) -> int:
        """Total sampling queries (rounds plus subset/per-cycle draws)."""
        return self._draws

    def summary(self) -> Dict[str, float]:
        """Mean/max slowdown factors observed so far (for run provenance).

        ``rounds`` counts full-membership synchronization rounds; ``draws``
        counts every sampling query (asynchronous schedules issue one per
        worker cycle, so for them ``draws`` ≫ ``rounds``).
        """
        if not self._history:
            return {
                "rounds": 0, "draws": 0, "mean_factor": 1.0, "max_factor": 1.0
            }
        # Draws may record different worker counts (subset rounds, async
        # per-cycle queries), so flatten rather than stack.
        applied = np.concatenate([np.ravel(h) for h in self._history])
        return {
            "rounds": float(self._round),
            "draws": float(self._draws),
            "mean_factor": float(applied.mean()),
            "max_factor": float(applied.max()),
        }

    def reset(self) -> None:
        """Restart the draw sequence (used by ``SimulatedCluster.reset_accounting``)."""
        self._rng = check_random_state(self.random_state)
        self._round = 0
        self._draws = 0
        self._history = []
