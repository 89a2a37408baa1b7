"""Static analysis over the codebase itself.

:mod:`repro.analysis.lint` is an AST lint (``python -m repro lint``) that
enforces the repo's hand-maintained contracts: backend purity (RPR001),
seeded determinism (RPR002), fork safety (RPR003) and honest error handling
(RPR004), with a committed suppression baseline.  Rule ids are documented in
``docs/analysis.md``.
"""

from repro.analysis.lint import LintFinding, LintReport, run_lint

__all__ = [
    "LintFinding",
    "LintReport",
    "run_lint",
]
