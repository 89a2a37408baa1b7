"""Unit tests for the static plan analysis layer (repro.analysis).

Covers the effect model (inference, declaration, conservative fallback),
every verifier rule PLN001..PLN010 with a triggering and a clean case, and
the static verdict against the runtime in-flight guard on overlap rewrites of
every registered sync solver's real epoch plan.

The thunks used to build plans are module-level on purpose: effect
inference reads function sources through ``linecache``, so thunks defined
in a REPL/exec string resolve to the conservative UNKNOWN footprint —
which is itself one of the cases below.
"""

from __future__ import annotations

import json
import types

import pytest

from repro.analysis import infer_effects, step_effects, verify_plan
from repro.analysis.effects import UNKNOWN_EFFECTS, declared_effects
from repro.datasets.synthetic import make_binary_margin, make_multiclass_gaussian
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.faults import FailureModel
from repro.distributed.schedule import (
    Collective,
    Join,
    LocalStep,
    Repeat,
    RoundPlan,
    ScheduleError,
    execute_plan,
)
from repro.harness.runner import SOLVER_REGISTRY

# ---------------------------------------------------------------------------
# Module-level thunks (inference needs real source lines)
# ---------------------------------------------------------------------------
def _compute(worker, ctx):
    return 1.0


def _local_mixed(worker, ctx):
    worker.state["scratch"] = ctx["a"]
    return ctx.get("b", 0.0) + worker.state["s"]


def _payload(key):
    return lambda ctx: ctx[key]


def _consume(key):
    def fn(ctx):
        return float(ctx[key]) * 2.0

    return fn


def _reweight(ctx):
    return float(ctx["total"]) / len(ctx["alive_workers"])


_OPAQUE = {}
exec("def _opaque(ctx):\n    return ctx['s1']\n", _OPAQUE)  # noqa: S102


_DATASET = make_multiclass_gaussian(160, 6, 3, class_separation=2.0, random_state=0)
_BINARY = make_binary_margin(150, 8, margin=1.5, random_state=1)

SYNC_SOLVERS = (
    "newton_admm",
    "giant",
    "inexact_dane",
    "aide",
    "disco",
    "cocoa",
    "sync_sgd",
)


def _cluster(binary: bool = False) -> SimulatedCluster:
    data = _BINARY if binary else _DATASET
    return SimulatedCluster(data, 4, engine="event", random_state=0)


def _profile(n_workers: int, faults: str) -> types.SimpleNamespace:
    """What ``verify_plan`` reads of a profile: a size and a fault model."""
    return types.SimpleNamespace(
        n_workers=n_workers, faults=FailureModel.from_spec(faults)
    )


def _fitted_plan(name: str):
    solver = SOLVER_REGISTRY[name](max_epochs=1)
    cluster = _cluster(binary=name == "cocoa")
    solver.fit(cluster)
    return solver._plan_epoch(cluster, 0), cluster


# ---------------------------------------------------------------------------
# Effects: inference, declaration, fallback
# ---------------------------------------------------------------------------
class TestEffects:
    def test_infers_ctx_and_worker_reads_and_writes(self):
        eff = infer_effects(_local_mixed, worker_param=0, ctx_param=1)
        assert eff.reads == frozenset({"a", "b", "worker:s"})
        assert eff.writes == frozenset({"worker:scratch"})
        assert eff.exact

    def test_infers_closure_resolved_keys(self):
        eff = infer_effects(_payload("g1"), ctx_param=0)
        assert eff.reads == frozenset({"g1"})
        assert eff.exact
        eff2 = infer_effects(_consume("s9"), ctx_param=0)
        assert eff2.reads == frozenset({"s9"})

    def test_exec_defined_thunk_is_unknown(self):
        eff = infer_effects(_OPAQUE["_opaque"], ctx_param=0)
        assert not eff.exact

    def test_declared_effects_override_inference(self):
        step = LocalStep(
            "g",
            _local_mixed,
            effects={"reads": ["x"], "writes": ["worker:w"]},
        )
        eff = step_effects(step)
        assert eff.reads == frozenset({"x"})
        # the binding write ctx["g"] is always part of the contract
        assert eff.writes == frozenset({"worker:w", "g"})
        assert eff.exact

    def test_declared_effects_reject_unknown_keys(self):
        with pytest.raises(ValueError):
            declared_effects({"mutates": ["x"]})
        with pytest.raises(ValueError):
            declared_effects({"reads": "not-a-list"})

    def test_unknown_effects_are_inexact(self):
        assert not UNKNOWN_EFFECTS.exact
        assert UNKNOWN_EFFECTS.reads == frozenset()


# ---------------------------------------------------------------------------
# Verifier rules, triggering + clean
# ---------------------------------------------------------------------------
def _clean_plan() -> RoundPlan:
    plan = RoundPlan("clean")
    plan.local("g1", _compute)
    plan.allreduce("s1", _payload("g1"))
    plan.master(_consume("s1"), name="m1")
    plan.returns("m1")
    return plan


class TestVerifyRules:
    def test_clean_plan_has_no_findings(self):
        report = verify_plan(_clean_plan())
        assert report.ok
        assert not report.findings
        assert report.rounds == 1

    def test_pln001_race_read_before_join(self):
        plan = RoundPlan("race")
        plan.local("g1", _compute)
        plan.allreduce("s1", _payload("g1"), overlap=True)
        plan.master(_consume("s1"), name="m1")
        plan.join()
        report = verify_plan(plan)
        assert not report.ok
        assert [f.rule for f in report.errors] == ["PLN001"]

    def test_pln002_unjoined_at_end(self):
        plan = RoundPlan("unjoined")
        plan.local("g1", _compute)
        plan.allreduce("s1", _payload("g1"), overlap=True)
        plan.local("hide", _compute)
        report = verify_plan(plan)
        assert [f.rule for f in report.errors] == ["PLN002"]

    def test_pln003_dead_join_is_warning_only(self):
        plan = _clean_plan()
        plan.steps.append(Join())
        report = verify_plan(plan)
        assert report.ok  # the runtime join() is a no-op, so ok must hold
        assert [f.rule for f in report.warnings] == ["PLN003"]

    def test_pln004_declared_count_mismatch(self):
        # declared_rounds is normally derived from the steps; a broken
        # rewrite tool (or subclass) that misdeclares is what PLN004 catches.
        class Misdeclared(RoundPlan):
            @property
            def declared_rounds(self):
                return 7

        plan = Misdeclared("misdeclared")
        plan.local("g1", _compute)
        plan.allreduce("s1", _payload("g1"))
        report = verify_plan(plan)
        assert not report.ok
        assert {f.rule for f in report.errors} == {"PLN004"}

    def test_pln005_degrade_without_alive_workers_consumer(self):
        plan = RoundPlan("degrade", on_failure="degrade")
        plan.local("g1", _compute)
        plan.allreduce("total", _payload("g1"))
        plan.master(_consume("total"), name="m1")
        report = verify_plan(plan)
        assert report.ok
        assert [f.rule for f in report.warnings] == ["PLN005"]

        consuming = RoundPlan("degrade-ok", on_failure="degrade")
        consuming.local("g1", _compute)
        consuming.allreduce("total", _payload("g1"))
        consuming.master(_reweight, name="m1")
        assert not verify_plan(consuming).findings

    def test_pln006_stall_under_permanent_crash(self):
        plan = RoundPlan("stall", on_failure="stall")
        plan.local("g1", _compute)
        plan.allreduce("s1", _payload("g1"))
        profile = _profile(4, "0@1.0")
        report = verify_plan(plan, profile=profile)
        assert not report.ok
        assert [f.rule for f in report.errors] == ["PLN006"]
        # without the profile the same plan is structurally fine
        assert verify_plan(plan).ok

    def test_pln006_raise_policy_is_warning(self):
        plan = _clean_plan()  # on_failure defaults to "raise"
        profile = _profile(4, "0@1.0")
        report = verify_plan(plan, profile=profile)
        assert report.ok
        assert [f.rule for f in report.warnings] == ["PLN006"]

    def test_pln006_degrade_with_no_survivors(self):
        plan = RoundPlan("doomed", on_failure="degrade")
        plan.local("g1", _compute)
        plan.allreduce("total", _payload("g1"))
        plan.master(_reweight, name="m1")
        profile = _profile(4, "0@1,1@1,2@1,3@1")
        report = verify_plan(plan, profile=profile)
        assert not report.ok
        assert [f.rule for f in report.errors] == ["PLN006"]

    def test_pln007_leading_joint_collective(self):
        plan = RoundPlan("joint")
        plan.local("g1", _compute)
        plan.allreduce("s1", _payload("g1"))
        plan.steps[1].joint_with_previous = True
        report = verify_plan(plan)
        assert report.ok
        assert [f.rule for f in report.warnings] == ["PLN007"]

    def test_pln008_unknown_footprint_while_in_flight(self):
        plan = RoundPlan("opaque")
        plan.local("g1", _compute)
        plan.allreduce("s1", _payload("g1"), overlap=True)
        plan.master(_OPAQUE["_opaque"], name="m1")
        plan.join()
        report = verify_plan(plan)
        assert not report.ok
        assert "PLN008" in {f.rule for f in report.errors}
        # the same opaque thunk with nothing in flight is accepted
        safe = RoundPlan("opaque-safe")
        safe.local("g1", _compute)
        safe.allreduce("s1", _payload("g1"))
        safe.master(_OPAQUE["_opaque"], name="m1")
        assert verify_plan(safe).ok

    def test_pln009_read_before_write(self):
        plan = RoundPlan("missing")
        plan.master(_consume("nope"), name="m1")
        report = verify_plan(plan)
        assert report.ok  # warning: the executor would KeyError, not race
        assert [f.rule for f in report.warnings] == ["PLN009"]
        # keys provided by the initial context are considered written
        seeded = RoundPlan("seeded", context={"nope": 1.0})
        seeded.master(_consume("nope"), name="m1")
        assert not verify_plan(seeded).findings

    def test_pln010_collective_payload_must_be_replica_consistent(self):
        # accepted: the payload folds a local step's results, which every
        # replica binds identically in the context
        accepted = RoundPlan("replicated")
        accepted.local("g1", _compute, effects={"writes": ["worker:x"]})
        accepted.allreduce("s1", _payload("g1"), effects={"reads": ["g1"]})
        assert not verify_plan(accepted).findings
        # rejected: the payload reads worker state, current on one rank only
        rejected = RoundPlan("rank-local")
        rejected.local("g1", _compute, effects={"writes": ["worker:x"]})
        rejected.allreduce(
            "s1", _payload("g1"), effects={"reads": ["g1", "worker:x"]}
        )
        report = verify_plan(rejected)
        assert not report.ok
        assert [f.rule for f in report.errors] == ["PLN010"]
        assert "worker:x" in report.errors[0].message
        assert report.errors[0].step_name == "s1"
        # ...and so is a payload nothing is known about
        opaque = RoundPlan("opaque-payload")
        opaque.local("s1", _compute)
        opaque.allreduce("total", _OPAQUE["_opaque"])
        assert [f.rule for f in verify_plan(opaque).errors] == ["PLN010"]

    def test_report_describe_is_json_serializable(self):
        plan, _ = _fitted_plan("giant")
        report = verify_plan(plan)
        payload = json.loads(json.dumps(report.describe()))
        assert payload["plan"] == plan.name
        assert payload["ok"] is True
        assert len(payload["steps"]) == len(plan.flattened())


# ---------------------------------------------------------------------------
# All registered solver plans verify clean with exact footprints
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", SYNC_SOLVERS)
def test_solver_plans_verify_clean(name):
    plan, _ = _fitted_plan(name)
    report = verify_plan(plan)
    assert report.ok, report.reason()
    assert not report.findings
    assert all(entry["exact"] for entry in report.step_effects)


# ---------------------------------------------------------------------------
# Static verdict == runtime guard on overlap rewrites of real solver plans
# ---------------------------------------------------------------------------
def _overlap_sites(steps):
    """``(step list, index)`` of each collective that may be forced to overlap.

    ``Repeat`` bodies are walked too: sync SGD's only collective lives in one,
    and a Join placed inside the body joins on every trip.
    """
    for i, step in enumerate(steps):
        if isinstance(step, Repeat):
            yield from _overlap_sites(step.steps)
        elif (
            isinstance(step, Collective)
            and not step.overlap
            and not step.joint_with_previous
            and step.op != "reduce_scalar"
        ):
            yield steps, i


@pytest.mark.parametrize("name", SYNC_SOLVERS)
def test_overlap_proposals_static_equals_execute(name):
    # Each eligible collective is forced to overlap in turn: with no Join,
    # with one right after it, and with one after the step that follows it.
    # Every variant is built on a fresh plan and cluster, since execution
    # mutates both.
    n_sites = len(list(_overlap_sites(_fitted_plan(name)[0].steps)))
    assert n_sites, f"{name}'s plan has no collective to overlap"
    for site in range(n_sites):
        for join_after in (None, 0, 1):
            plan, cluster = _fitted_plan(name)
            steps, index = list(_overlap_sites(plan.steps))[site]
            steps[index].overlap = True
            if join_after is not None:
                steps.insert(index + 1 + join_after, Join())
            report = verify_plan(plan)
            try:
                execute_plan(cluster, plan)
                runtime_ok = True
            except ScheduleError:
                runtime_ok = False
            assert report.ok == runtime_ok, (
                f"{steps[index].name} join_after={join_after}: "
                f"static={report.ok} runtime={runtime_ok}: {report.reason()}"
            )
