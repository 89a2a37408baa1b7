"""Differential property tests: static verifier vs. the runtime guard.

The static plan verifier (:func:`repro.analysis.verify_plan`) claims to
answer the same question as trial execution: *does this schedule respect the
executor's contracts?*  This suite holds it to that claim on randomly
generated plans:

- on every generated plan — legal by construction, or mutated into possible
  illegality — the static verdict matches whether ``execute_plan`` raises
  ``ScheduleError`` (the in-flight guard is the runtime oracle);
- every plan the verifier passes executes with its declared round and
  collective counts.

Mutations are applied to top-level steps only: mutating a step inside a
``Repeat`` body re-issues the same collective while a previous issue may be
in flight, which is a different executor contract than the one the verifier
models round-by-round.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plan_grammar import round_plans  # noqa: E402

from repro.analysis import verify_plan  # noqa: E402
from repro.datasets.synthetic import make_multiclass_gaussian  # noqa: E402
from repro.distributed.cluster import SimulatedCluster  # noqa: E402
from repro.distributed.schedule import (  # noqa: E402
    Collective,
    Join,
    RoundPlan,
    ScheduleError,
    execute_plan,
)

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
# Mutations: possibly-illegal variants of legal plans (top-level steps only)
# ---------------------------------------------------------------------------
@st.composite
def mutated_plans(draw) -> RoundPlan:
    plan = draw(round_plans())
    mutation = draw(
        st.sampled_from(("force_overlap", "drop_join", "extra_join", "noop"))
    )
    if mutation == "force_overlap":
        targets = [
            s
            for s in plan.steps
            if isinstance(s, Collective)
            and not s.overlap
            and s.op != "reduce_scalar"
            and not s.joint_with_previous
        ]
        if targets:
            target = targets[draw(st.integers(0, len(targets) - 1))]
            target.overlap = True
    elif mutation == "drop_join":
        joins = [i for i, s in enumerate(plan.steps) if isinstance(s, Join)]
        if joins:
            plan.steps.pop(joins[draw(st.integers(0, len(joins) - 1))])
    elif mutation == "extra_join":
        index = draw(st.integers(0, len(plan.steps)))
        plan.steps.insert(index, Join())
    return plan


# ---------------------------------------------------------------------------
# The differential contract
# ---------------------------------------------------------------------------
@BOUNDED
@given(plan=mutated_plans())
def test_static_verdict_matches_runtime_guard(plan):
    report = verify_plan(plan)
    try:
        execution = execute_plan(_cluster(), plan)
        runtime_ok = True
    except ScheduleError:
        runtime_ok = False
        execution = None
    assert report.ok == runtime_ok, (
        f"static={report.ok} runtime={runtime_ok}: {report.reason()}"
    )
    if execution is not None:
        assert execution.rounds == plan.declared_rounds


@BOUNDED
@given(plan=round_plans())
def test_verified_plans_execute_with_declared_counts(plan):
    report = verify_plan(plan)
    assert report.ok, report.reason()
    if report.rounds is not None:
        assert report.rounds == plan.declared_rounds
    execution = execute_plan(_cluster(), plan)
    assert execution.rounds == plan.declared_rounds
    assert execution.collectives == plan.declared_collectives


@BOUNDED
@given(plan=round_plans())
def test_generated_plans_have_exact_footprints(plan):
    # The differential suite is only as strong as the effect model: every
    # step built from the grammar's thunks must infer an exact footprint.
    report = verify_plan(plan)
    assert all(entry["exact"] for entry in report.step_effects)
