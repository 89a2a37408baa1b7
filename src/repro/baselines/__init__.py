"""Distributed baselines the paper compares Newton-ADMM against.

Second-order: GIANT, InexactDANE, AIDE.
First-order: synchronous mini-batch SGD, plus the asynchronous parameter-server
variant the paper dismisses for its stale-gradient convergence penalty.

All baselines run on the same :class:`~repro.distributed.cluster.SimulatedCluster`
and produce the same :class:`~repro.metrics.traces.RunTrace` as Newton-ADMM,
so the harness can build every figure from interchangeable runs.
"""

from repro.baselines.giant import GIANT
from repro.baselines.dane import InexactDANE
from repro.baselines.aide import AIDE
from repro.baselines.sync_sgd import SynchronousSGD
from repro.baselines.async_sgd import AsynchronousSGD

__all__ = [
    "GIANT",
    "InexactDANE",
    "AIDE",
    "SynchronousSGD",
    "AsynchronousSGD",
]
