"""Static plan verification: a dataflow walk over ``RoundPlan.flattened()``.

:func:`verify_plan` replays a plan's step sequence symbolically, tracking the
set of written context keys and the set of in-flight overlapped transfers
exactly the way the executor's :class:`_PlanContext` guard tracks them at
runtime, and emits structured :class:`Finding` records with stable rule ids:

========  ========  ====================================================
rule      severity  meaning
========  ========  ====================================================
PLN001    error     overlap race: a step reads a key whose transfer is
                    still in flight (the runtime guard would raise)
PLN002    error     unjoined overlap: the plan ends with transfers in
                    flight (the executor raises after the last step)
PLN003    warning   dead Join: nothing was in flight (runtime no-op)
PLN004    error     static round/collective count disagrees with the
                    plan's declared counts
PLN005    warning   a degrade-policy plan whose downstream steps never
                    consume ``ctx["alive_workers"]`` — survivors are
                    silently reweighted by nobody
PLN006    error     quorum unsatisfiable under the profile's fault spec
                    (stall forever, or degrade to zero survivors);
                    warning for policies that merely abort or erode
PLN007    warning   ``joint_with_previous`` on a collective with no
                    preceding collective in the same epoch
PLN008    error     a step with an unknown footprint runs while a
                    transfer is in flight (cannot prove it safe)
PLN009    warning   a step reads a key that no earlier step wrote and
                    the initial context does not provide
PLN010    error     a collective's payload reads per-worker state
                    (``worker:<key>``) or has an unknown footprint: its
                    buffers are not provably the same on every replica
========  ========  ====================================================

``report.ok`` is "no error-severity findings" and is calibrated to agree
with the runtime in-flight guard: a plan whose steps have exact footprints
is ``ok`` iff :func:`execute_plan` would not raise a
:class:`ScheduleError` for a schedule-structure reason (the differential
hypothesis suite in ``tests/test_analysis_properties.py`` pins this).

PLN010 is the exception: no runtime check stands behind it.  On the process
engine every rank executes the plan on its own replica and only *its own*
worker's state is current there; the ranks exchange local-step results (which
land in the context, identically everywhere) and nothing else, so a
collective folds whatever its payload builds from the replica.  A payload
that reads the context is replica-consistent by construction; one that reads
``worker:<key>`` state is not, and one nothing is known about cannot be
shown to be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.effects import WORKER_PREFIX, plan_effects
from repro.distributed.schedule import (
    Barrier,
    Collective,
    DynamicStep,
    Join,
    RoundPlan,
    Step,
)

#: rule id -> (severity, one-line description) — the catalogue rendered in
#: docs/analysis.md and ``PlanReport.describe()``
PLAN_RULES: Dict[str, Tuple[str, str]] = {
    "PLN001": ("error", "use-before-Join: step reads an in-flight overlapped key"),
    "PLN002": ("error", "plan ends with overlapped transfer(s) still in flight"),
    "PLN003": ("warning", "dead Join: no transfer in flight at this point"),
    "PLN004": ("error", "declared round/collective count disagrees with the steps"),
    "PLN005": ("warning", "degrade policy but no step consumes ctx['alive_workers']"),
    "PLN006": ("error", "quorum unsatisfiable under the profile's fault spec"),
    "PLN007": ("warning", "joint_with_previous with no preceding collective"),
    "PLN008": ("error", "unknown step footprint while a transfer is in flight"),
    "PLN009": ("warning", "step reads a key no earlier step wrote"),
    "PLN010": ("error", "collective payload is not replica-consistent"),
}

ERROR, WARNING = "error", "warning"


@dataclass(frozen=True)
class Finding:
    """One structured verification finding."""

    rule: str
    severity: str
    message: str
    step_index: Optional[int] = None
    step_name: Optional[str] = None

    def describe(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "step_index": self.step_index,
            "step_name": self.step_name,
        }


@dataclass
class PlanReport:
    """Outcome of one :func:`verify_plan` call."""

    plan_name: str
    findings: List[Finding] = field(default_factory=list)
    #: recomputed static round count (``None`` for dynamic plans)
    rounds: Optional[int] = None
    #: per flattened step: ``(kind, name, effects.describe())``
    step_effects: List[dict] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True when the plan is statically legal (no error findings)."""
        return not self.errors

    def reason(self) -> str:
        """Human-readable summary of the error findings (empty when ok)."""
        return "; ".join(f"{f.rule}: {f.message}" for f in self.errors)

    def describe(self) -> dict:
        return {
            "plan": self.plan_name,
            "ok": self.ok,
            "rounds": self.rounds,
            "findings": [f.describe() for f in self.findings],
            "steps": self.step_effects,
        }


def _step_kind(step: Step) -> str:
    return type(step).__name__.lower().replace("step", "")


def _fault_findings(plan: RoundPlan, profile: Any) -> List[Finding]:
    """PLN006: can the plan's sync points ever be satisfied under faults?

    Works off the profile's :class:`FailureModel` introspectively: workers
    with a deterministic crash and no ``restart_after`` never return; an
    MTBF process with no ``restart_after`` eventually kills everyone.
    """
    faults = getattr(profile, "faults", None)
    if faults is None or not getattr(faults, "active", False):
        return []
    findings: List[Finding] = []
    n_workers = int(getattr(profile, "n_workers", 0) or 0)

    restart = getattr(faults, "restart_after", None)
    deterministic = set()
    if getattr(faults, "crash_at_time", None):
        deterministic.update(dict(faults.crash_at_time))
    if getattr(faults, "crash_at_round", None):
        deterministic.update(dict(faults.crash_at_round))
    groups = getattr(faults, "groups", None)
    if groups and getattr(faults, "correlation", 0.0):
        # A correlated co-crash can take a whole group down with the seed
        # crash; treat group members of deterministic crashers as at-risk
        # but not certainly-permanent (the draw is probabilistic).
        pass
    permanent = deterministic if restart is None else set()
    mtbf_no_restart = bool(getattr(faults, "mtbf", None)) and restart is None

    policies = {plan.on_failure}
    for step in plan.flattened():
        if isinstance(step, Collective) and step.on_failure:
            policies.add(step.on_failure)

    if "stall" in policies and (permanent or mtbf_no_restart):
        cause = (
            f"worker(s) {sorted(permanent)} crash deterministically"
            if permanent
            else f"MTBF {faults.mtbf} crashes are permanent"
        )
        findings.append(
            Finding(
                "PLN006",
                ERROR,
                f"policy 'stall' waits forever: {cause} and restart_after "
                "is None, so a stalled collective can never complete",
            )
        )
    if "degrade" in policies:
        if n_workers and len(permanent) >= n_workers:
            findings.append(
                Finding(
                    "PLN006",
                    ERROR,
                    f"policy 'degrade' has no quorum: all {n_workers} "
                    "worker(s) crash permanently (restart_after is None)",
                )
            )
        elif mtbf_no_restart:
            findings.append(
                Finding(
                    "PLN006",
                    WARNING,
                    "policy 'degrade' erodes to zero survivors eventually: "
                    f"MTBF {faults.mtbf} with restart_after=None",
                )
            )
    if "raise" in policies and (permanent or mtbf_no_restart):
        findings.append(
            Finding(
                "PLN006",
                WARNING,
                "policy 'raise' aborts on the first crash the profile's "
                "fault spec makes inevitable",
            )
        )
    return findings


def verify_plan(plan: RoundPlan, profile: Any = None) -> PlanReport:
    """Statically verify ``plan``; optionally against a fault ``profile``.

    Execution-free: resolves each flattened step's effect footprint
    (declared or inferred — see :mod:`repro.analysis.effects`) and walks the
    sequence with the same in-flight bookkeeping the executor enforces at
    runtime.  With a ``profile`` (anything exposing ``n_workers`` and a
    ``faults`` :class:`FailureModel`, e.g. a ``types.SimpleNamespace``),
    fault-policy satisfiability is checked as well (PLN006).
    """
    report = PlanReport(plan_name=plan.name)
    steps = plan.flattened()
    resolved = plan_effects(steps)

    in_flight: Set[str] = set()
    written: Set[str] = set(plan.context)
    # the executor binds these before/while running degrade-policy plans
    written.add("alive_workers")
    seen_collective = False
    consumes_alive = False
    # once any step's writes are unknown, PLN009 would fabricate findings
    writes_complete = True
    static = plan.is_static
    rounds = 0
    collectives = 0

    for index, (step, eff) in enumerate(resolved):
        name = getattr(step, "name", None)
        report.step_effects.append(
            {"kind": _step_kind(step), "name": name, **eff.describe()}
        )
        if "alive_workers" in eff.ctx_reads():
            consumes_alive = True

        if isinstance(step, Join):
            if not in_flight:
                report.findings.append(
                    Finding(
                        "PLN003",
                        WARNING,
                        "Join with no overlapped transfer in flight (no-op)",
                        step_index=index,
                    )
                )
            in_flight.clear()
            continue
        if isinstance(step, Barrier):
            continue

        # --- reads happen before this step's binding write ---------------
        ctx_reads = eff.ctx_reads()
        if not eff.ctx_exact and in_flight:
            report.findings.append(
                Finding(
                    "PLN008",
                    ERROR,
                    f"cannot prove step safe: unknown context footprint "
                    f"while {sorted(in_flight)} is in flight",
                    step_index=index,
                    step_name=name,
                )
            )
        raced = sorted(ctx_reads & in_flight)
        if raced:
            report.findings.append(
                Finding(
                    "PLN001",
                    ERROR,
                    f"reads overlapped key(s) {raced} before a Join; the "
                    "runtime in-flight guard would raise here",
                    step_index=index,
                    step_name=name,
                )
            )
        if eff.ctx_exact and writes_complete:
            unwritten = sorted(ctx_reads - written)
            if unwritten:
                report.findings.append(
                    Finding(
                        "PLN009",
                        WARNING,
                        f"reads key(s) {unwritten} that no earlier step "
                        "wrote and the initial context does not provide",
                        step_index=index,
                        step_name=name,
                    )
                )

        # --- execute the step symbolically --------------------------------
        if isinstance(step, Collective):
            if step.joint_with_previous and not seen_collective:
                report.findings.append(
                    Finding(
                        "PLN007",
                        WARNING,
                        f"collective {step.name!r} is joint_with_previous "
                        "but no collective precedes it",
                        step_index=index,
                        step_name=step.name,
                    )
                )
            seen_collective = True
            collectives += 1
            worker_reads = sorted(
                k for k in eff.reads if k.startswith(WORKER_PREFIX)
            )
            if worker_reads or not (eff.ctx_exact or eff.state_exact):
                report.findings.append(
                    Finding(
                        "PLN010",
                        ERROR,
                        f"payload of collective {step.name!r} "
                        + (
                            f"reads per-worker state {worker_reads}"
                            if worker_reads
                            else "has an unknown footprint"
                        )
                        + "; each replica only updates its own worker's "
                        "state, so the buffers may differ between ranks — "
                        "build them from a LocalStep's results in the context",
                        step_index=index,
                        step_name=step.name,
                    )
                )
            if step.opens_round:
                rounds += 1
            if step.overlap:
                in_flight.add(step.name)
            else:
                # a blocking collective drains the background transfers
                in_flight.clear()
        elif isinstance(step, DynamicStep):
            static = False

        if eff.ctx_exact:
            written |= eff.ctx_writes()
        else:
            # an unknown step may have written anything
            writes_complete = False
        if name:
            written.add(name)

    if in_flight:
        report.findings.append(
            Finding(
                "PLN002",
                ERROR,
                f"plan ends with overlapped collective(s) "
                f"{sorted(in_flight)} still in flight; the executor "
                "requires a trailing Join()",
            )
        )

    if static:
        report.rounds = rounds
        if plan.declared_rounds is not None and rounds != plan.declared_rounds:
            report.findings.append(
                Finding(
                    "PLN004",
                    ERROR,
                    f"steps open {rounds} round(s) but the plan declares "
                    f"{plan.declared_rounds}",
                )
            )
        if (
            plan.declared_collectives is not None
            and collectives != plan.declared_collectives
        ):
            report.findings.append(
                Finding(
                    "PLN004",
                    ERROR,
                    f"steps contain {collectives} collective(s) but the "
                    f"plan declares {plan.declared_collectives}",
                )
            )

    if plan.on_failure == "degrade" and not consumes_alive:
        report.findings.append(
            Finding(
                "PLN005",
                WARNING,
                "plan degrades on failure but no payload/master step reads "
                "ctx['alive_workers']; surviving-worker aggregates will not "
                "be reweighted",
            )
        )

    if profile is not None:
        report.findings.extend(_fault_findings(plan, profile))
    return report
