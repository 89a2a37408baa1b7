"""Shared generated-plan grammar for the schedule property suites.

``round_plans()`` draws random *legal* round plans built from executable
segments; it is used by ``test_schedule_properties.py`` (execution
properties) and ``test_analysis_properties.py`` (static-verifier
differential properties).  Import this module only after
``pytest.importorskip("hypothesis")``.

The thunks live at module level in a real source file on purpose: the
effect-inference layer (:mod:`repro.analysis.effects`) reads function
bodies through ``linecache``, so plans built from these segments carry
fully *exact* footprints — which the differential suite relies on.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.distributed.schedule import RoundPlan


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

    Segments keep the executor's contracts by construction: overlapped
    collectives are joined before anyone reads them, ``reduce_scalar`` never
    overlaps, ``joint_with_previous`` only follows a blocking collective in
    the same round, and the plan ends joined.
    """
    plan = RoundPlan("prop")
    n_segments = draw(st.integers(min_value=1, max_value=4))
    uid = 0
    last_blocking = None  # name of a blocking collective closing the last round
    for _ in range(n_segments):
        uid += 1
        kind = draw(
            st.sampled_from(
                ("reduce", "reduce_consumed", "overlap", "scalar", "repeat", "local")
            )
        )
        g, s = f"g{uid}", f"s{uid}"
        if kind == "local":
            plan.local(g, _compute)
            last_blocking = None
        elif kind == "reduce":
            plan.local(g, _compute)
            plan.allreduce(s, _payload(g))
            last_blocking = s
        elif kind == "reduce_consumed":
            plan.local(g, _compute)
            plan.allreduce(s, _payload(g))
            plan.master(_consume(s), name=f"m{uid}")
            last_blocking = s
        elif kind == "overlap":
            plan.local(g, _compute)
            plan.allreduce(s, _payload(g), overlap=True)
            plan.local(f"hide{uid}", _compute)
            plan.join()
            if draw(st.booleans()):
                plan.master(_consume(s), name=f"m{uid}")
            last_blocking = None
        elif kind == "scalar":
            plan.local(g, _compute)
            joint = last_blocking is not None and draw(st.booleans())
            plan.reduce_scalar(s, _payload(g), joint_with_previous=joint)
            last_blocking = s
        else:  # repeat
            times = draw(st.integers(min_value=1, max_value=3))

            def body(b, g=g, s=s):
                b.local(g, _compute)
                b.allreduce(s, _payload(g))

            plan.repeat(times, body)
            last_blocking = None
    return plan
