"""repro — reproduction of "Newton-ADMM: A Distributed GPU-Accelerated
Optimizer for Multiclass Classification Problems" (Fang et al., SC 2020).

Quick start::

    from repro import NewtonADMM, SimulatedCluster, load_dataset

    train, test = load_dataset("mnist_like")
    cluster = SimulatedCluster(train, n_workers=4)
    solver = NewtonADMM(lam=1e-5, max_epochs=50)
    trace = solver.fit(cluster, test=test)
    print(trace.final.objective, trace.final.test_accuracy)

The package is organized as:

* :mod:`repro.core` / :mod:`repro.admm` — the Newton-ADMM solver (the paper's
  contribution);
* :mod:`repro.solvers` — single-node solvers, including the inexact Newton-CG
  sub-solver;
* :mod:`repro.objectives`, :mod:`repro.linalg`, :mod:`repro.datasets` — the
  numerical substrates;
* :mod:`repro.distributed` — the simulated cluster (network/device cost
  models, collectives, workers);
* :mod:`repro.baselines` — GIANT, InexactDANE, AIDE and synchronous
  SGD;
* :mod:`repro.harness` — experiment drivers that regenerate every table and
  figure of the paper.
"""

from repro.admm.async_newton_admm import AsyncNewtonADMM
from repro.admm.newton_admm import NewtonADMM
from repro.admm.penalty import FixedPenalty, ResidualBalancing, SpectralPenalty
from repro.backend import (
    ArrayBackend,
    available_backends,
    get_backend,
    set_default_backend,
)
from repro.baselines import (
    AIDE,
    AsynchronousSGD,
    GIANT,
    InexactDANE,
    SynchronousSGD,
)
from repro.datasets.base import ClassificationDataset, train_test_split
from repro.datasets.registry import load_dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.engine import EventEngine
from repro.distributed.collectives import TunedNetworkModel, tuned_network
from repro.distributed.device import DeviceModel, tesla_p100
from repro.distributed.faults import (
    FailureModel,
    PartitionError,
    PartitionModel,
    WorkerLostError,
)
from repro.distributed.network import NetworkModel, ethernet_10g, infiniband_100g
from repro.distributed.stragglers import StragglerModel
from repro.metrics.traces import RunTrace, speedup_ratio
from repro.objectives.base import RegularizedObjective
from repro.objectives.logistic import BinaryLogistic
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.newton_cg import NewtonCG

__version__ = "1.0.0"

__all__ = [
    "NewtonADMM",
    "AsyncNewtonADMM",
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "set_default_backend",
    "SpectralPenalty",
    "ResidualBalancing",
    "FixedPenalty",
    "GIANT",
    "InexactDANE",
    "AIDE",
    "SynchronousSGD",
    "AsynchronousSGD",
    "NewtonCG",
    "TunedNetworkModel",
    "tuned_network",
    "StragglerModel",
    "FailureModel",
    "PartitionModel",
    "PartitionError",
    "WorkerLostError",
    "EventEngine",
    "SimulatedCluster",
    "ClassificationDataset",
    "train_test_split",
    "load_dataset",
    "DeviceModel",
    "NetworkModel",
    "tesla_p100",
    "infiniband_100g",
    "ethernet_10g",
    "RunTrace",
    "speedup_ratio",
    "SoftmaxCrossEntropy",
    "BinaryLogistic",
    "L2Regularizer",
    "RegularizedObjective",
    "__version__",
]
