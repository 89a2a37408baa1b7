"""AIDE — Accelerated Inexact DanE (Reddi et al., 2016).

AIDE wraps InexactDANE in Catalyst-style acceleration: each outer iteration
solves the ``tau``-augmented problem ``F(x) + (tau/2) ||x - y_acc||^2`` with
one InexactDANE step, then extrapolates the prox center

    ``y_acc <- x_new + beta * (x_new - x_old)``

with the usual momentum coefficient built from ``q = lam / (lam + tau)``.
The paper tunes ``tau`` on a log grid; it is a constructor parameter here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.dane import InexactDANE
from repro.distributed.cluster import SimulatedCluster


class AIDE(InexactDANE):
    """Catalyst-accelerated InexactDANE.

    Parameters
    ----------
    tau:
        Catalyst augmentation strength (the paper sweeps 1e-4..1e4).
    Remaining parameters are inherited from :class:`InexactDANE`.
    """

    name = "aide"

    def __init__(self, *, tau: float = 1.0, **kwargs):
        super().__init__(**kwargs)
        if tau < 0:
            raise ValueError(f"tau must be >= 0, got {tau}")
        self.tau = float(tau)
        self._y_acc: Optional[np.ndarray] = None
        self._w_prev: Optional[np.ndarray] = None

    def _initialize(self, cluster: SimulatedCluster, w0: np.ndarray) -> None:
        super()._initialize(cluster, w0)
        self._y_acc = w0.copy()
        self._w_prev = w0.copy()

    def _momentum(self) -> float:
        """Catalyst momentum from the strong-convexity ratio q = lam/(lam+tau)."""
        if self.tau == 0:
            return 0.0
        q = self.lam / (self.lam + self.tau)
        sqrt_q = np.sqrt(q)
        return float((1.0 - sqrt_q) / (1.0 + sqrt_q))

    def _plan_epoch(self, cluster: SimulatedCluster, epoch: int):
        if self._w is None or self._y_acc is None or self._w_prev is None:
            raise RuntimeError("AIDE epoch requested before _initialize")
        plan = self._dane_plan(
            cluster, self._w, extra_mu=self.tau, prox_center=self._y_acc
        )

        def commit(ctx: dict) -> np.ndarray:
            w_new = ctx["averaged"]
            beta = self._momentum()
            self._y_acc = w_new + beta * (w_new - self._w_prev)
            self._w_prev = self._w
            self._w = w_new
            self._last_extras["momentum"] = beta
            return self._w

        plan.master(commit, name="w")
        plan.returns("w")
        return plan
