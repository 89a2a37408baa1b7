"""Build clusters, instantiate solvers by name, and run single experiments."""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.admm.async_newton_admm import AsyncNewtonADMM
from repro.admm.newton_admm import NewtonADMM
from repro.baselines.aide import AIDE
from repro.baselines.async_sgd import AsynchronousSGD
from repro.baselines.dane import InexactDANE
from repro.baselines.giant import GIANT
from repro.baselines.sync_sgd import SynchronousSGD
from repro.datasets.base import ClassificationDataset
from repro.datasets.registry import load_dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.device import (
    DeviceModel,
    cpu_xeon_gold,
    device_for_backend,
    tesla_p100,
)
from repro.distributed.network import (
    NetworkModel,
    ethernet_10g,
    infiniband_100g,
    wan_slow,
)
from repro.distributed.faults import FailureModel
from repro.distributed.solver_base import DistributedSolver
from repro.harness.config import (
    ClusterConfig,
    SolverConfig,
    default_engine,
    default_faults,
)
from repro.metrics.traces import RunTrace
from repro.objectives.base import RegularizedObjective
from repro.objectives.regularizers import L2Regularizer
from repro.objectives.softmax import SoftmaxCrossEntropy
from repro.solvers.newton_cg import NewtonCG

#: name -> distributed solver class
SOLVER_REGISTRY: Dict[str, Type[DistributedSolver]] = {
    "newton_admm": NewtonADMM,
    "async_newton_admm": AsyncNewtonADMM,
    "giant": GIANT,
    "inexact_dane": InexactDANE,
    "aide": AIDE,
    "sync_sgd": SynchronousSGD,
    "async_sgd": AsynchronousSGD,
}

_NETWORKS = {
    "infiniband_100g": infiniband_100g,
    "ethernet_10g": ethernet_10g,
    "wan_slow": wan_slow,
}

_DEVICES = {
    "tesla_p100": tesla_p100,
    "cpu_xeon_gold": cpu_xeon_gold,
}


def resolve_network(name_or_model) -> NetworkModel:
    """Accept a registry name or an existing :class:`NetworkModel`."""
    if isinstance(name_or_model, NetworkModel):
        return name_or_model
    if name_or_model in _NETWORKS:
        return _NETWORKS[name_or_model]()
    raise KeyError(
        f"unknown network {name_or_model!r}; available: {sorted(_NETWORKS)}"
    )


def resolve_device(name_or_model, *, backend=None) -> DeviceModel:
    """Accept a registry name, ``"auto"``, or an existing :class:`DeviceModel`.

    ``"auto"`` keys the cost model off the active array backend (the device
    the arrays actually live on).
    """
    if isinstance(name_or_model, DeviceModel):
        return name_or_model
    if name_or_model == "auto":
        return device_for_backend(backend)
    if name_or_model in _DEVICES:
        return _DEVICES[name_or_model]()
    raise KeyError(
        f"unknown device {name_or_model!r}; available: {sorted(_DEVICES) + ['auto']}"
    )


def build_cluster(
    config: ClusterConfig,
) -> Tuple[SimulatedCluster, ClassificationDataset]:
    """Load the configured dataset, shard it, and return (cluster, test set)."""
    train, test = load_dataset(
        config.dataset,
        n_train=config.n_train,
        n_test=config.n_test,
        random_state=config.seed,
        **config.dataset_kwargs,
    )
    fault_spec = config.faults if config.faults is not None else default_faults()
    cluster = SimulatedCluster(
        train,
        config.n_workers,
        network=resolve_network(config.network),
        device=resolve_device(config.device, backend=config.backend),
        sharding=config.sharding,
        backend=config.backend,
        precision=config.precision,
        engine=config.engine if config.engine is not None else default_engine(),
        faults=FailureModel.from_spec(fault_spec) if fault_spec else None,
        random_state=config.seed,
    )
    return cluster, test


def make_solver(config: SolverConfig) -> DistributedSolver:
    """Instantiate a distributed solver from its registry name and kwargs."""
    if config.name not in SOLVER_REGISTRY:
        raise KeyError(
            f"unknown solver {config.name!r}; available: {sorted(SOLVER_REGISTRY)}"
        )
    kwargs = {k: v for k, v in config.kwargs.items() if k != "label"}
    return SOLVER_REGISTRY[config.name](**kwargs)


def run_method(
    solver_config: SolverConfig,
    cluster_config: ClusterConfig,
    *,
    cluster: Optional[SimulatedCluster] = None,
    test: Optional[ClassificationDataset] = None,
    on_record=None,
    should_stop=None,
) -> RunTrace:
    """Run one solver on one cluster configuration and return its trace.

    Passing a pre-built ``cluster``/``test`` avoids regenerating the dataset
    when several methods share the same workload (as every figure does).
    ``on_record``/``should_stop`` stream per-epoch progress and request
    cooperative cancellation (see :meth:`DistributedSolver.fit`) — the
    training-job API of :mod:`repro.serving` runs every job through them.
    A cluster built here is also closed here (on the process engine that
    stops its worker processes and unlinks their shared memory).
    """
    built_here = cluster is None or test is None
    if built_here:
        cluster, test = build_cluster(cluster_config)
    solver = make_solver(solver_config)
    try:
        trace = solver.fit(
            cluster, test=test, on_record=on_record, should_stop=should_stop
        )
    finally:
        if built_here:
            cluster.close()
    trace.info["solver_config"] = {"name": solver_config.name, **solver_config.kwargs}
    trace.info["cluster_config"] = vars(cluster_config).copy()
    return trace


def reference_optimum(
    train: ClassificationDataset,
    lam: float,
    *,
    max_iterations: int = 200,
    cg_max_iter: int = 250,
    cg_tol: float = 1e-10,
    grad_tol: float = 1e-10,
    w0: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """High-precision single-node Newton solve used as ``x*`` / ``F*``.

    This mirrors the paper's procedure for Figure 3: the "optimal" solution is
    obtained by running Newton's method on a single node to high precision.
    """
    loss = SoftmaxCrossEntropy(train.X, train.y, train.n_classes, scale="mean")
    objective = RegularizedObjective(loss, L2Regularizer(loss.dim, lam))
    solver = NewtonCG(
        max_iterations=max_iterations,
        grad_tol=grad_tol,
        cg_max_iter=cg_max_iter,
        cg_tol=cg_tol,
    )
    result = solver.minimize(objective, w0)
    return result.w, float(result.objective)
