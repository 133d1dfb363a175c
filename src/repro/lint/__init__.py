"""simlint: simulator-aware static analysis.

The per-file AST rules (:mod:`repro.lint.rules`) check this codebase's
reproducibility hazards; :mod:`repro.lint.engine` applies them with
line-scoped suppressions and backs the ``repro lint`` CLI.  The runtime
counterpart, the invariant sanitizer, lives in :mod:`repro.sim.sanitize`.

See ``docs/static-analysis.md`` for the rule catalogue and invariant list.
"""

from repro.lint.engine import LintOptions, lint_paths, lint_source
from repro.lint.findings import Finding, RuleInfo, summarize
from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintOptions",
    "RULES",
    "RuleInfo",
    "lint_paths",
    "lint_source",
    "summarize",
]
