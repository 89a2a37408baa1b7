"""Simulated distributed runtime.

The paper runs on a GPU cluster with an MPI backend.  This package provides a
deterministic, in-process stand-in: real NumPy math executes on every
"worker", while a network model (latency + bandwidth, tree collectives) and a
device model (GPU-like FLOP throughput) convert the counted work and message
sizes into *modelled* cluster time.  Iterates, FLOP counts and message sizes
are exact; only their conversion into seconds is modelled (see
``docs/architecture.md``, "Distributed runtime").

Beyond the defaults, the runtime exposes the systems knobs a practitioner
would tune: alternative collective algorithms (ring / recursive doubling),
heterogeneous per-worker devices, and straggler / slowdown injection.
"""

from repro.distributed.device import DeviceModel, tesla_p100, cpu_xeon_gold
from repro.distributed.network import (
    NetworkModel,
    infiniband_100g,
    ethernet_10g,
    wan_slow,
)
from repro.distributed.collectives import (
    TunedNetworkModel,
    bruck_allgather_time,
    recursive_doubling_allreduce_time,
    ring_allgather_time,
    ring_allreduce_time,
    tree_allreduce_time,
    tuned_network,
)
from repro.distributed.stragglers import StragglerModel
from repro.distributed.faults import (
    FailureModel,
    FaultInjector,
    PartitionError,
    PartitionModel,
    WorkerLostError,
)
from repro.distributed.engine import Event, EventEngine
from repro.distributed.schedule import (
    Collective,
    GlobalStep,
    LocalStep,
    PlanExecution,
    Repeat,
    RoundPlan,
    ScheduleError,
    execute_plan,
)
from repro.distributed.comm import Communicator, CommunicationLog
from repro.distributed.worker import Worker
from repro.distributed.cluster import SimulatedCluster

__all__ = [
    "DeviceModel",
    "tesla_p100",
    "cpu_xeon_gold",
    "NetworkModel",
    "infiniband_100g",
    "ethernet_10g",
    "wan_slow",
    "TunedNetworkModel",
    "tuned_network",
    "tree_allreduce_time",
    "ring_allreduce_time",
    "recursive_doubling_allreduce_time",
    "ring_allgather_time",
    "bruck_allgather_time",
    "StragglerModel",
    "FailureModel",
    "FaultInjector",
    "PartitionModel",
    "PartitionError",
    "WorkerLostError",
    "Event",
    "EventEngine",
    "Collective",
    "GlobalStep",
    "LocalStep",
    "PlanExecution",
    "Repeat",
    "RoundPlan",
    "ScheduleError",
    "execute_plan",
    "Communicator",
    "CommunicationLog",
    "Worker",
    "SimulatedCluster",
]
