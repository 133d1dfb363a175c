"""Summarise benchmarks/results/*.txt: the suite-level rows EXPERIMENTS.md
records.  Run after `pytest benchmarks/ --benchmark-only`:

    python benchmarks/summarize_results.py           # human-readable
    python benchmarks/summarize_results.py --json    # machine-readable

The ``--json`` form is what CI archives as an artifact; it groups the same
suite-level lines by source file so regressions can be diffed without
parsing rendered tables.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

IPC_POLICIES = ["Norm", "E-Norm+NC", "Slow+SC", "E-Slow+SC", "B-Mellow+SC",
                "BE-Mellow+SC", "Norm+WQ", "B-Mellow+SC+WQ",
                "BE-Mellow+SC+WQ"]
LIFETIME_POLICIES = ["Slow+SC", "E-Slow+SC", "B-Mellow+SC", "BE-Mellow+SC",
                     "E-Norm+NC", "Norm+WQ", "BE-Mellow+SC+WQ"]


def grab(name: str, match: str, results_dir: Path = RESULTS_DIR):
    """First line of results/<name> starting with ``match`` (None if absent)."""
    path = results_dir / name
    if not path.is_file():
        return None
    for line in path.read_text().splitlines():
        if line.startswith(match):
            return line
    return None


def _fields(line: str):
    """Split a table row into label + numeric columns where possible."""
    values = []
    for token in line.split():
        try:
            values.append(float(token))
        except ValueError:
            values.append(token)
    return values


def collect(results_dir: Path = RESULTS_DIR) -> dict:
    """All suite-level summary rows, grouped by results file."""
    summary: dict = {}

    def add(name, match):
        line = grab(name, match, results_dir)
        if line is not None:
            summary.setdefault(name, []).append(
                {"match": match, "line": line, "fields": _fields(line)}
            )

    for policy in IPC_POLICIES:
        add("fig10_policy_ipc.txt", f"GEOMEAN     {policy} ")
    for policy in LIFETIME_POLICIES:
        add("fig11_policy_lifetime.txt", f"GEOMEAN     {policy} ")
    add("fig17_expo_sensitivity.txt", "Slow+SC")
    add("fig17_expo_sensitivity.txt", "BE-Mellow+SC")

    headline = results_dir / "headline_summary.txt"
    if headline.is_file():
        summary["headline_summary.txt"] = [
            {"match": None, "line": line, "fields": _fields(line)}
            for line in headline.read_text().splitlines()
        ]
    return summary


def print_text(summary: dict) -> None:
    for name in ("fig10_policy_ipc.txt", "fig11_policy_lifetime.txt",
                 "fig17_expo_sensitivity.txt"):
        for row in summary.get(name, []):
            print(f"{name}: {row['line']}")
        print()
    for row in summary.get("headline_summary.txt", []):
        print("headline:", row["line"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable summary on stdout")
    parser.add_argument("--results-dir", type=Path, default=RESULTS_DIR)
    args = parser.parse_args(argv)
    summary = collect(args.results_dir)
    if args.json:
        json.dump({"results_dir": str(args.results_dir), "sections": summary},
                  sys.stdout, indent=2)
        print()
    else:
        print_text(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
