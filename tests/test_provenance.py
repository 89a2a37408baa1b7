"""Provenance coverage: no constructor knob silently missing from records.

``trace.info`` is the reproduction's provenance record — every solver stamps
``hyperparameters()`` and every cluster stamps ``describe()`` into it.  A
kwarg added to a constructor but not surfaced there rots silently: runs look
reproducible while an undeclared knob changed the math (the ``cg_block`` /
``precision`` / ``on_failure`` additions of the perf PRs were exactly this
risk).  These tests enumerate the constructor signatures mechanically, so a
new kwarg fails the suite until it either appears in the record or is added
to the *explicit* exemption lists below with a reason.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.datasets.synthetic import make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.solver_base import DistributedSolver
from repro.distributed.stragglers import StragglerModel
from repro.harness.runner import SOLVER_REGISTRY

#: ``__init__`` kwargs allowed to stay out of ``hyperparameters()``.
#: Empty on purpose: every solver knob is provenance.  Add entries only with
#: a reason the knob cannot affect the recorded run.
SOLVER_EXEMPT: dict = {}

#: ``fit()`` kwargs that are *run wiring*, not hyperparameters: callbacks
#: observe the run (``on_record``) or end it from outside (``should_stop``),
#: the cluster/test set are recorded via ``cluster_config``, ``w0`` is the
#: run's input iterate (zeros unless a warm start hands one in), and
#: ``reset_cluster`` only decides whether modelled clocks restart at zero.
FIT_EXEMPT = {
    "self", "cluster", "test", "on_record", "should_stop", "w0", "reset_cluster",
}

#: ``SimulatedCluster.__init__`` kwargs not in ``describe()``: the dataset
#: itself (provenance records its registry name and sizes, not the rows) and
#: pre-built shards (recorded as ``sharding == "explicit"``).
CLUSTER_EXEMPT = {"train", "shards"}


def _init_params(cls) -> list:
    return [
        name
        for name, p in inspect.signature(cls.__init__).parameters.items()
        if name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


@pytest.mark.parametrize("name", sorted(SOLVER_REGISTRY))
def test_every_solver_kwarg_is_recorded(name):
    cls = SOLVER_REGISTRY[name]
    solver = cls()
    recorded = set(solver.hyperparameters())
    exempt = set(SOLVER_EXEMPT.get(name, ()))
    missing = [p for p in _init_params(cls) if p not in recorded | exempt]
    assert not missing, (
        f"{cls.__name__} kwargs {missing} are absent from hyperparameters(); "
        "record them or exempt them explicitly in SOLVER_EXEMPT"
    )


def test_recent_solver_kwargs_are_present_where_defined():
    # The knobs the perf PRs added must show up on the solvers that take
    # them — the mechanical sweep above would also catch this, but these are
    # the regressions this test was written against, so name them.
    for cls in SOLVER_REGISTRY.values():
        params = set(_init_params(cls))
        recorded = set(cls().hyperparameters())
        for knob in ("cg_block", "precision", "on_failure"):
            if knob in params:
                assert knob in recorded, f"{cls.__name__} drops {knob!r}"


def test_fit_callbacks_are_exempt_not_forgotten():
    # The exemption list must describe fit() as it is: every fit parameter
    # is either wiring (exempt) or does not exist.  If fit() grows a real
    # hyperparameter this fails and forces a decision.
    fit_params = set(inspect.signature(DistributedSolver.fit).parameters)
    assert fit_params <= FIT_EXEMPT
    assert {"on_record", "should_stop"} <= fit_params


def test_every_cluster_kwarg_is_recorded():
    dataset = make_multiclass_gaussian(120, 6, 3, random_state=0)
    cluster = SimulatedCluster(
        dataset,
        4,
        straggler=StragglerModel(slowdown=2.0, persistent_stragglers=[1]),
        random_state=0,
    )
    recorded = set(cluster.describe())
    missing = [
        p
        for p in _init_params(SimulatedCluster)
        if p not in recorded | CLUSTER_EXEMPT
    ]
    assert not missing, (
        f"SimulatedCluster kwargs {missing} are absent from describe(); "
        "record them or exempt them explicitly in CLUSTER_EXEMPT"
    )
    # The record is provenance: it must serialize as-is.
    json.dumps(cluster.describe())


def test_cluster_records_straggler_and_sharding():
    dataset = make_multiclass_gaussian(120, 6, 3, random_state=0)
    straggled = SimulatedCluster(
        dataset,
        4,
        straggler=StragglerModel(slowdown=3.0, persistent_stragglers=[0]),
        sharding="contiguous",
        random_state=7,
    )
    info = straggled.describe()
    assert info["straggler"]["slowdown"] == 3.0
    assert info["straggler"]["persistent_stragglers"] == [0]
    assert info["sharding"] == "contiguous"
    assert info["random_state"] == 7
    plain = SimulatedCluster(dataset, 4, random_state=0).describe()
    assert plain["straggler"] is None


def test_straggler_describe_covers_every_field():
    model = StragglerModel(slowdown=5.0, probability=0.25, jitter=0.1)
    described = set(model.describe())
    declared = {
        name
        for name, p in inspect.signature(StragglerModel.__init__).parameters.items()
        if name != "self"
    }
    assert described == declared
    json.dumps(model.describe())

