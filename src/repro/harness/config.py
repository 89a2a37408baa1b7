"""Configuration dataclasses for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from repro.distributed.engine import resolve_engine


class ExperimentScale(str, Enum):
    """How large the reproduction workloads are.

    ``QUICK`` keeps every experiment runnable in seconds (CI / benchmarks),
    ``SMALL`` is the reproduction scale (``python -m repro run all --scale
    small``), and ``PAPER`` matches the paper's sample counts where memory
    allows (expect long run times on a laptop).
    """

    QUICK = "quick"
    SMALL = "small"
    PAPER = "paper"


#: Per-scale training-set sizes for each registered dataset.
#:
#: The HIGGS stand-in is kept much larger than the other quick-scale
#: workloads: with only 28 features its per-epoch compute is tiny, and the
#: epoch-time / scaling experiments (Figure 2) only show the paper's shape
#: when per-worker compute sits above the interconnect latency floor — which
#: is also the regime the real 11M-sample HIGGS occupies.
SCALE_TRAIN_SIZES: Dict[ExperimentScale, Dict[str, int]] = {
    ExperimentScale.QUICK: {
        "higgs_like": 192_000,
        "mnist_like": 4_800,
        "cifar_like": 800,
        "e18_like": 800,
    },
    ExperimentScale.SMALL: {
        "higgs_like": 256_000,
        "mnist_like": 8_000,
        "cifar_like": 4_000,
        "e18_like": 4_000,
    },
    ExperimentScale.PAPER: {
        "higgs_like": 11_000_000,
        "mnist_like": 60_000,
        "cifar_like": 50_000,
        "e18_like": 60_000,
    },
}

#: Per-scale test-set sizes.
SCALE_TEST_SIZES: Dict[ExperimentScale, Dict[str, int]] = {
    ExperimentScale.QUICK: {
        "higgs_like": 800,
        "mnist_like": 400,
        "cifar_like": 200,
        "e18_like": 200,
    },
    ExperimentScale.SMALL: {
        "higgs_like": 4_000,
        "mnist_like": 2_000,
        "cifar_like": 1_000,
        "e18_like": 800,
    },
    ExperimentScale.PAPER: {
        "higgs_like": 1_000_000,
        "mnist_like": 10_000,
        "cifar_like": 10_000,
        "e18_like": 6_000,
    },
}


@dataclass
class ClusterConfig:
    """Everything needed to build a :class:`SimulatedCluster` plus test data.

    Attributes
    ----------
    dataset:
        Registry name (``higgs_like``, ``mnist_like``, ``cifar_like``,
        ``e18_like``).
    n_workers:
        Number of simulated nodes.
    n_train, n_test:
        Sample counts; ``None`` defers to the registry defaults.
    network, device:
        Cost-model names understood by :func:`repro.harness.runner.build_cluster`;
        ``device="auto"`` keys the cost model off the active array backend.
    backend:
        Array backend name (``"numpy"``, ``"cupy"``, ``"torch"``, ``"auto"``)
        or ``None`` for the session default set via
        :func:`repro.backend.set_default_backend` (the CLI's ``--backend``).
    engine:
        Execution engine: ``"event"``, ``"process"``, or ``None`` for the
        session default set via :func:`set_default_engine` (the CLI's
        ``--engine``).
    faults:
        Fault-injection spec string understood by
        :meth:`repro.distributed.faults.FailureModel.from_spec` (e.g.
        ``"0@2.5,restart=1.0"`` for a crash/restart,
        ``"part=0@2.0-6.0"`` for a network partition), or ``None`` for the
        session default set via :func:`set_default_faults` (the CLI's
        ``--faults``).
    precision:
        Storage precision of the cluster (``"mixed"``, ``"fp64"``,
        ``"fp32"``) or ``None`` for the session default set via
        :func:`repro.backend.set_default_precision` (the CLI's
        ``--precision``), and ``"mixed"`` without one; see
        :mod:`repro.backend.precision`.
    """

    dataset: str
    n_workers: int = 4
    n_train: Optional[int] = None
    n_test: Optional[int] = None
    network: str = "infiniband_100g"
    device: str = "tesla_p100"
    sharding: str = "stratified"
    backend: Optional[str] = None
    engine: Optional[str] = None
    faults: Optional[str] = None
    precision: Optional[str] = None
    seed: int = 0
    dataset_kwargs: Dict[str, object] = field(default_factory=dict)


#: session default for ``ClusterConfig.engine`` (see :func:`set_default_engine`)
_DEFAULT_ENGINE = "event"


def set_default_engine(mode: str) -> str:
    """Set the session-wide default execution engine (the CLI's ``--engine``).

    Every :class:`ClusterConfig` whose ``engine`` is ``None`` resolves to this
    value at cluster-build time, so the experiment drivers pick it up without
    threading the flag through every call.  ``mode`` is resolved by
    :func:`~repro.distributed.engine.resolve_engine`; the canonical name is
    stored and returned.
    """
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = resolve_engine(mode)
    return _DEFAULT_ENGINE


def default_engine() -> str:
    return _DEFAULT_ENGINE


#: session default for ``ClusterConfig.faults`` (see :func:`set_default_faults`)
_DEFAULT_FAULTS: Optional[str] = None


def set_default_faults(spec: Optional[str]) -> Optional[str]:
    """Set the session-wide default fault-injection spec (the CLI's ``--faults``).

    The spec is validated eagerly by parsing it with
    :meth:`~repro.distributed.faults.FailureModel.from_spec`; every
    :class:`ClusterConfig` whose ``faults`` is ``None`` resolves to it at
    cluster-build time.  ``None`` clears the default.
    """
    global _DEFAULT_FAULTS
    if spec is not None:
        from repro.distributed.faults import FailureModel

        FailureModel.from_spec(spec)  # raises ValueError on a bad spec
    _DEFAULT_FAULTS = spec
    return _DEFAULT_FAULTS


def default_faults() -> Optional[str]:
    return _DEFAULT_FAULTS


@dataclass
class SolverConfig:
    """A solver name plus its keyword arguments.

    ``name`` must be a key of :data:`repro.harness.runner.SOLVER_REGISTRY`.
    """

    name: str
    kwargs: Dict[str, object] = field(default_factory=dict)

    def label(self) -> str:
        return self.kwargs.get("label", self.name)  # type: ignore[return-value]


def train_size_for(dataset: str, scale: ExperimentScale) -> int:
    """Training-set size of ``dataset`` at the given reproduction scale."""
    sizes = SCALE_TRAIN_SIZES[scale]
    if dataset not in sizes:
        raise KeyError(f"unknown dataset {dataset!r}")
    return sizes[dataset]


def test_size_for(dataset: str, scale: ExperimentScale) -> int:
    """Test-set size of ``dataset`` at the given reproduction scale."""
    sizes = SCALE_TEST_SIZES[scale]
    if dataset not in sizes:
        raise KeyError(f"unknown dataset {dataset!r}")
    return sizes[dataset]
