"""Property-based tests for the schedule IR.

Random *legal* round plans are generated from a small grammar of executable
segments (:func:`round_plans`) and executed: each must run with its declared
round and collective counts.

The hypothesis profile is bounded (capped ``max_examples``, deadline
disabled) so the suite stays inside the fast tier's budget; see
``pyproject.toml``'s ``test`` extra and ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.datasets.synthetic import make_multiclass_gaussian  # noqa: E402
from repro.distributed.cluster import SimulatedCluster  # noqa: E402
from repro.distributed.schedule import RoundPlan, execute_plan  # noqa: E402

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


def _compute(worker, ctx):
    return 1.0


def _payload(key):
    return lambda ctx: ctx[key]


def _consume(key):
    def fn(ctx):
        return float(ctx[key]) * 2.0

    return fn


@st.composite
def round_plans(draw) -> RoundPlan:
    """A random legal plan built from executable segments.

    ``joint_with_previous`` only follows a collective that closed the
    previous segment, so every joint collective shares a real round.
    """
    plan = RoundPlan("prop")
    n_segments = draw(st.integers(min_value=1, max_value=4))
    last_collective = None  # name of a collective closing the last segment
    for uid in range(1, n_segments + 1):
        kind = draw(
            st.sampled_from(("reduce", "reduce_consumed", "scalar", "repeat", "local"))
        )
        g, s = f"g{uid}", f"s{uid}"
        if kind == "local":
            plan.local(g, _compute)
            last_collective = None
        elif kind == "reduce":
            plan.local(g, _compute)
            plan.allreduce(s, _payload(g))
            last_collective = s
        elif kind == "reduce_consumed":
            plan.local(g, _compute)
            plan.allreduce(s, _payload(g))
            plan.master(_consume(s), name=f"m{uid}")
            last_collective = s
        elif kind == "scalar":
            plan.local(g, _compute)
            joint = last_collective is not None and draw(st.booleans())
            plan.reduce_scalar(s, _payload(g), joint_with_previous=joint)
            last_collective = s
        else:  # repeat
            times = draw(st.integers(min_value=1, max_value=3))

            def body(b, g=g, s=s):
                b.local(g, _compute)
                b.allreduce(s, _payload(g))

            plan.repeat(times, body)
            last_collective = None
    return plan


# ---------------------------------------------------------------------------
# Generated plans really are legal
# ---------------------------------------------------------------------------
@BOUNDED
@given(plan=round_plans())
def test_generated_plans_execute(plan):
    execution = execute_plan(_cluster(), plan)
    assert execution.rounds == plan.declared_rounds
    assert execution.collectives == plan.declared_collectives
