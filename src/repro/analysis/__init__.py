"""Static analysis over the schedule IR and the codebase itself.

Two layers share this package:

* :mod:`repro.analysis.effects` + :mod:`repro.analysis.verify` — an effect
  model (``reads``/``writes`` sets per plan step) and a dataflow verifier
  (:func:`verify_plan`) that proves or refutes a :class:`RoundPlan`'s
  legality *without executing it*: overlap races, dead Joins, round-count
  drift, degrade plans that never consume ``alive_workers``, and
  quorum-unsatisfiable plans under a declared fault profile.  Its verdict
  matches the executor's runtime in-flight guard, and
  ``scripts/verify_solver_plans.py`` runs it over every solver's plan.

* :mod:`repro.analysis.lint` — an AST lint (``python -m repro lint``) that
  enforces the repo's hand-maintained contracts: backend purity (RPR001),
  seeded determinism (RPR002), fork safety (RPR003) and honest error
  handling (RPR004), with a committed suppression baseline.

Rule ids (``PLN*`` for plan findings, ``RPR*`` for lint findings) are
documented in ``docs/analysis.md``.
"""

from repro.analysis.effects import Effects, infer_effects, step_effects
from repro.analysis.lint import LintFinding, LintReport, run_lint
from repro.analysis.verify import Finding, PlanReport, verify_plan

__all__ = [
    "Effects",
    "Finding",
    "LintFinding",
    "LintReport",
    "PlanReport",
    "infer_effects",
    "run_lint",
    "step_effects",
    "verify_plan",
]
