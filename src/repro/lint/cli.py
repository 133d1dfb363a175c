"""``repro lint`` and ``repro check`` subcommands.

``repro lint`` runs simlint and emits text or JSON.  Exit codes:
0 = clean, 1 = findings, 2 = usage error.  ``--bench`` instead measures
the runtime sanitizer's overhead on the smoke-sweep configs and verifies
sanitized results are bit-identical to unsanitized ones.

``repro check`` is the umbrella verb: simlint over the whole tree plus
``ruff`` and ``mypy`` when those tools are installed.  Missing tools
are skipped with a note by default (the local environment need not
carry them); CI passes ``--require-tools`` to turn a missing tool into
a failure instead of a silent gap.

The rule engine is imported by the handlers, not with this module: the
``repro`` command line declares these arguments for every verb.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.lint.engine import LintOptions
    from repro.lint.findings import Finding
    from repro.sim.config import SimConfig

#: Default lint target when no paths are given.
DEFAULT_PATHS = ("src",)

#: What ``repro check`` lints: the whole tree, not just src.
CHECK_PATHS = ("src", "tests", "benchmarks", "examples")

#: Workload/policy grid for ``--bench`` (mirrors the CI smoke sweep).
BENCH_WORKLOADS = ("lbm", "stream")
BENCH_POLICIES = ("Norm", "BE-Mellow+SC")
BENCH_SCALE = 0.05


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--output", default=None,
                        help="write the report to this file instead of stdout")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--ignore", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--report-unused-suppressions",
                        dest="report_unused",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="emit SIM100 for suppressions that matched "
                             "no finding (default: on)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--bench", action="store_true",
                        help="measure sanitizer overhead on the smoke sweep "
                             "instead of linting")


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", default=list(CHECK_PATHS),
                        help="directories to check "
                             f"(default: {' '.join(CHECK_PATHS)})")
    parser.add_argument("--require-tools", action="store_true",
                        help="fail when ruff or mypy is not installed "
                             "instead of skipping it (CI mode)")


def _split_rules(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [r.strip().upper() for r in text.split(",") if r.strip()]


def _print_rule_catalogue() -> None:
    from repro.lint.rules import RULES

    for info in RULES.values():
        print(f"{info.rule_id} {info.name} [{info.severity}]")
        print(f"    {info.summary}")
        print(f"    fix: {info.hint}")


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text)
    else:
        Path(output).write_text(text + "\n")


def _run_lint(paths: Sequence[str], options: LintOptions
              ) -> Tuple[Optional[List[Finding]], int]:
    """Shared lint driver; returns (findings, exit_code)."""
    from repro.lint.engine import lint_paths

    try:
        findings = lint_paths(paths, options)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return None, 2
    return findings, 1 if findings else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import engine
    from repro.lint.findings import findings_to_json, summarize

    if args.list_rules:
        _print_rule_catalogue()
        return 0
    if args.bench:
        return run_bench()
    try:
        options = engine.LintOptions(
            select=_split_rules(args.select),
            ignore=_split_rules(args.ignore) or (),
            report_unused=args.report_unused,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    findings, code = _run_lint(args.paths, options)
    if findings is None:
        return code
    if args.format == "json":
        _emit(findings_to_json(findings), args.output)
    else:
        lines = [finding.format_text() for finding in findings]
        counts = summarize(findings)
        if findings:
            lines.append(
                f"\n{counts['total']} finding(s): "
                f"{counts['by_severity']['error']} error(s), "
                f"{counts['by_severity']['warning']} warning(s)"
            )
        else:
            lines.append("simlint: no findings")
        _emit("\n".join(lines), args.output)
    return code


# --------------------------------------------------------------------------
# repro check: simlint + ruff + mypy under one verb
# --------------------------------------------------------------------------

def _run_tool(name: str, command: List[str],
              require: bool) -> Tuple[str, int]:
    """Run an external checker; returns (status_word, exit_code)."""
    if shutil.which(command[0]) is None:
        if require:
            print(f"check: {name}: NOT INSTALLED (--require-tools)",
                  file=sys.stderr)
            return "missing", 1
        return "skipped (not installed)", 0
    completed = subprocess.run(command, check=False)
    if completed.returncode != 0:
        return "FAILED", 1
    return "ok", 0


def cmd_check(args: argparse.Namespace) -> int:
    """Umbrella static checking: simlint, then ruff, then mypy."""
    from repro.lint import engine

    failures = 0
    statuses: List[Tuple[str, str]] = []

    findings, lint_code = _run_lint(args.paths, engine.LintOptions())
    if findings is None:
        return 2
    for finding in findings:
        print(finding.format_text())
    statuses.append((
        "simlint",
        "ok" if lint_code == 0 else f"{len(findings)} finding(s)",
    ))
    failures += lint_code

    for name, command in (
        ("ruff", ["ruff", "check", *args.paths]),
        ("mypy", ["mypy"]),
    ):
        status, code = _run_tool(name, command, args.require_tools)
        statuses.append((name, status))
        failures += code

    width = max(len(name) for name, _ in statuses)
    for name, status in statuses:
        print(f"check: {name:<{width}}  {status}")
    return 1 if failures else 0


# --------------------------------------------------------------------------
# Sanitizer overhead benchmark
# --------------------------------------------------------------------------

def _bench_configs() -> Tuple[List["SimConfig"], List["SimConfig"]]:
    from dataclasses import replace

    from repro.sim.config import SimConfig
    configs = [
        SimConfig(workload=workload, policy=policy).scaled(BENCH_SCALE)
        for workload in BENCH_WORKLOADS
        for policy in BENCH_POLICIES
    ]
    return configs, [replace(c, sanitize=True) for c in configs]


def _time_runs(configs: Sequence["SimConfig"]) -> float:
    from repro.sim.system import run_simulation
    start = time.perf_counter()   # simlint: ignore[SIM003] -- measuring host runtime is the point of --bench
    for config in configs:
        run_simulation(config)
    return time.perf_counter() - start   # simlint: ignore[SIM003] -- measuring host runtime is the point of --bench


def run_bench() -> int:
    """Time the smoke sweep with and without the sanitizer armed.

    Also cross-checks that sanitize mode leaves every result bit-identical
    (the strong form of "the sanitizer is read-only"); a mismatch is a bug
    in a sanitizer hook and exits nonzero.
    """
    from repro.sim.system import run_simulation
    from repro.store import result_to_dict

    plain_configs, sanitized_configs = _bench_configs()
    # Warm interpreter caches so the two timed passes are comparable.
    run_simulation(plain_configs[0])

    plain_s = _time_runs(plain_configs)
    sanitized_s = _time_runs(sanitized_configs)
    overhead = (sanitized_s / plain_s - 1.0) if plain_s > 0 else 0.0

    grid = ",".join(BENCH_WORKLOADS) + " x " + ",".join(BENCH_POLICIES)
    print(f"sanitizer bench ({grid} @ scale {BENCH_SCALE}):")
    print(f"  unsanitized: {plain_s:8.3f} s")
    print(f"  sanitized:   {sanitized_s:8.3f} s")
    print(f"  overhead:    {overhead:+8.1%}")

    for plain, sanitized in zip(plain_configs, sanitized_configs):
        left = result_to_dict(run_simulation(plain))
        right = result_to_dict(run_simulation(sanitized))
        if left != right:
            print(
                f"MISMATCH: sanitize mode changed results for "
                f"{plain.workload}/{plain.policy_name}",
                file=sys.stderr,
            )
            return 1
    print("  results:     bit-identical with sanitizer armed")
    return 0
