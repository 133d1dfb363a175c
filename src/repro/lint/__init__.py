"""simlint: simulator-aware static analysis.

The per-file AST rules (:mod:`repro.lint.rules`) check this codebase's
reproducibility hazards; :mod:`repro.lint.engine` applies them with
line-scoped suppressions and backs the ``repro lint`` CLI.  The runtime
counterpart, the invariant sanitizer, lives in :mod:`repro.sim.sanitize`.

See ``docs/static-analysis.md`` for the rule catalogue and invariant list.

Every name resolves on first use (PEP 562 ``__getattr__``): the ``repro``
command line imports :mod:`repro.lint.cli` to declare its arguments
without compiling the rules.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.lint.engine import LintOptions, lint_paths, lint_source
    from repro.lint.findings import Finding, RuleInfo, summarize
    from repro.lint.rules import RULES

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "Finding": "findings",
    "LintOptions": "engine",
    "RULES": "rules",
    "RuleInfo": "findings",
    "lint_paths": "engine",
    "lint_source": "engine",
    "summarize": "findings",
}

__all__ = [
    "Finding",
    "LintOptions",
    "RULES",
    "RuleInfo",
    "lint_paths",
    "lint_source",
    "summarize",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
