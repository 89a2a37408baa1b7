"""Property-based tests for the schedule IR.

Random *legal* round plans are generated from a small grammar of executable
segments (``plan_grammar.round_plans``) and executed: each must run with its
declared round and collective counts.

The hypothesis profile is bounded (capped ``max_examples``, deadline
disabled) so the suite stays inside the fast tier's budget; see
``pyproject.toml``'s ``test`` extra and ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402

from repro.datasets.synthetic import make_multiclass_gaussian  # noqa: E402
from repro.distributed.cluster import SimulatedCluster  # noqa: E402
from repro.distributed.schedule import execute_plan  # noqa: E402

from plan_grammar import round_plans  # noqa: E402

#: bounded profile for the whole module — property tests must stay fast
BOUNDED = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

_DATASET = make_multiclass_gaussian(120, 6, 3, class_separation=2.0, random_state=0)


def _cluster() -> SimulatedCluster:
    return SimulatedCluster(_DATASET, 4, engine="event", random_state=0)


# ---------------------------------------------------------------------------
# Generated plans really are legal
# ---------------------------------------------------------------------------
@BOUNDED
@given(plan=round_plans())
def test_generated_plans_execute(plan):
    execution = execute_plan(_cluster(), plan)
    assert execution.rounds == plan.declared_rounds
    assert execution.collectives == plan.declared_collectives
