"""simlint engine: discovery, per-file checks, suppressions, rule selection.

The engine turns paths into findings one file at a time:

1. **discover** - expand directories into a sorted ``*.py`` list;
2. **check** - parse and run the AST rules (:func:`repro.lint.rules.check_source`);
3. **suppress** - drop findings matched by a suppression comment;
4. **finalize** - apply ``--select``/``--ignore`` and report unused
   suppressions as SIM100.

Suppression syntax (mirrors ``noqa``)::

    risky_line()  # simlint: ignore[SIM003] -- benchmarking wall-clock
    risky_line()  # simlint: ignore          (suppresses every rule)

Anything after the closing bracket is a free-form justification; writing
one is strongly encouraged and the repo's own suppressions all carry one.
Suppressions are parsed from real COMMENT tokens (via :mod:`tokenize`),
so the syntax appearing inside a string literal - like the example two
paragraphs up - is inert.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, sort_findings
from repro.lint.rules import RULES, check_source

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9,\s]*)\])?"
)

#: Suppression entry meaning "every rule".
ALL_RULES = "*"


@dataclass(frozen=True)
class LintOptions:
    """Rule filtering for one lint run."""

    select: Optional[Sequence[str]] = None   # only these rule ids
    ignore: Sequence[str] = ()               # minus these rule ids
    #: Emit SIM100 for ``simlint: ignore`` comments that matched no
    #: finding.  On by default: a stale suppression is a latent bug
    #: (the hazard it hid may have moved one line down).
    report_unused: bool = True

    def __post_init__(self) -> None:
        for rule_id in [*(self.select or ()), *self.ignore]:
            if rule_id not in RULES:
                known = ", ".join(sorted(RULES))
                raise ValueError(
                    f"unknown rule {rule_id!r} (known: {known})"
                )

    def enabled(self, rule_id: str) -> bool:
        if self.select is not None and rule_id not in self.select:
            return False
        return rule_id not in self.ignore


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

def extract_suppressions(source: str) -> Dict[int, Dict[str, Any]]:
    """Line -> ``{"rules": [...], "col": n}`` from real comment tokens.

    Only COMMENT tokens count: a suppression spelled inside a string
    literal or docstring does not suppress (and is not reported as
    unused).  Falls back to a line-regex scan if tokenization fails,
    which can only happen for files that also fail ``ast.parse``.
    """
    comments: List[Tuple[int, int, str]] = []
    try:
        reader = io.StringIO(source).readline
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                comments.append(
                    (token.start[0], token.start[1] + 1, token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            index = line.find("#")
            if index >= 0:
                comments.append((lineno, index + 1, line[index:]))
    suppressions: Dict[int, Dict[str, Any]] = {}
    for lineno, col, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules_text = match.group("rules")
        if rules_text is None:
            rules = [ALL_RULES]
        else:
            parsed = sorted({r.strip().upper()
                             for r in rules_text.split(",") if r.strip()})
            rules = parsed or [ALL_RULES]
        suppressions[lineno] = {"rules": rules, "col": col}
    return suppressions


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of suppressed rule ids (or ``{"*"}``)."""
    return {line: set(info["rules"])
            for line, info in extract_suppressions(source).items()}


def _matches(rule_id: str, rules: Sequence[str]) -> bool:
    return ALL_RULES in rules or rule_id in rules


# --------------------------------------------------------------------------
# Per-file check
# --------------------------------------------------------------------------

def _finalize(path: str, source: str, raw: List[Finding],
              options: LintOptions) -> List[Finding]:
    """Apply suppressions and rule filters; add SIM100 for unused ones.

    A suppression is "used" when ANY raw finding matches it - before
    select/ignore filtering, so the unused-suppression verdict never
    depends on this run's options.
    """
    suppressions = extract_suppressions(source)
    used: Set[int] = set()
    kept: List[Finding] = []
    for finding in raw:
        info = suppressions.get(finding.line)
        if info is not None and _matches(finding.rule_id, info["rules"]):
            used.add(finding.line)
        elif options.enabled(finding.rule_id):
            kept.append(finding)

    if options.report_unused and options.enabled("SIM100"):
        meta = RULES["SIM100"]
        lines = source.splitlines()
        for line, info in sorted(suppressions.items()):
            if line in used:
                continue
            listed = ", ".join(info["rules"])
            snippet = lines[line - 1].strip() if line <= len(lines) else ""
            kept.append(Finding(
                rule_id="SIM100", severity=meta.severity, path=path,
                line=line, column=int(info["col"]),
                message=f"suppression ignore[{listed}] matches no "
                        "finding on this line",
                hint=meta.hint, snippet=snippet,
            ))
    return sort_findings(kept)


def lint_source(source: str, path: str = "<string>",
                options: Optional[LintOptions] = None) -> List[Finding]:
    """Lint one source string; raises SyntaxError on unparsable input."""
    options = options if options is not None else LintOptions()
    tree = ast.parse(source, filename=path)
    raw = list(check_source(path, tree, source.splitlines()))
    return _finalize(path, source, raw, options)


def _error_finding(path: str, line: int, column: int, message: str,
                   hint: str) -> Finding:
    """Synthetic SIM000: never suppressed, never filtered out."""
    return Finding(rule_id="SIM000", severity="error", path=path,
                   line=line, column=column, message=message, hint=hint)


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated ``*.py`` list."""
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            seen.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            seen.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(seen)


def lint_paths(paths: Iterable[Any],
               options: Optional[LintOptions] = None) -> List[Finding]:
    """Lint every Python file under ``paths``.

    Unparsable/unreadable files surface as synthetic ``SIM000`` error
    findings rather than aborting the run, so one syntax error cannot
    hide every other finding in a tree.
    """
    options = options if options is not None else LintOptions()
    findings: List[Finding] = []
    for file_path in discover_files(Path(p) for p in paths):
        path = str(file_path)
        try:
            source = file_path.read_text()
        except (OSError, UnicodeDecodeError) as error:
            findings.append(_error_finding(
                path, 1, 1, f"unreadable file: {error}",
                "fix the file encoding or permissions"))
            continue
        try:
            findings.extend(lint_source(source, path, options))
        except SyntaxError as error:
            findings.append(_error_finding(
                path, error.lineno or 1, (error.offset or 0) + 1,
                f"syntax error: {error.msg}",
                "simlint only checks files that parse"))
    return sort_findings(findings)
