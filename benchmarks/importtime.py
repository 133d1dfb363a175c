"""Print the costliest imports of a plain simulation run.

Runs one small profile config (telemetry, faults and every optional
component off) in a fresh interpreter under ``python -X importtime``
and lists the modules with the largest own import time: compiling the
source (when no ``__pycache__`` holds its bytecode) plus running the
module body.  ``PYTHONDONTWRITEBYTECODE=1`` is set for that interpreter,
so the report leaves no bytecode behind; a ``__pycache__`` already under
``src/`` is still read, and the report says so.

    PYTHONPATH=src python benchmarks/importtime.py              # 15 rows
    PYTHONPATH=src python benchmarks/importtime.py --top 30
    PYTHONPATH=src python benchmarks/importtime.py --markdown   # CI job summary

It only reports: nothing here is a gate.  ``docs/performance.md``
("Process start") explains how to read the numbers.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"

#: The plain run: what ``System(config).run()`` imports and loads.
PLAIN_RUN = (
    "from repro.sim.config import SimConfig\n"
    "from repro.sim.system import System\n"
    "System(SimConfig(workload='hmmer', policy='BE-Mellow+SC',"
    " warmup_accesses=500, measure_accesses=1000,"
    " functional_warmup_max=5000)).run()\n"
)

Row = Tuple[int, int, str]   # own us, cumulative us, module


def import_times() -> List[Row]:
    """One row per module the plain run imports, in import order."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    stderr = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", PLAIN_RUN], env=env,
        capture_output=True, text=True, check=True).stderr
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        own, cumulative, module = line[len("import time:"):].split("|")
        if own.strip().isdigit():   # skips the header line
            rows.append((int(own), int(cumulative), module.strip()))
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=15,
                        help="rows to print (default 15)")
    parser.add_argument("--markdown", action="store_true",
                        help="print a Markdown table")
    args = parser.parse_args(argv)

    rows = import_times()
    ours = [row for row in rows
            if row[2] == "repro" or row[2].startswith("repro.")]
    costliest = sorted(rows, reverse=True)[:args.top]
    cached = any(SRC.rglob("__pycache__"))
    summary = (f"{len(rows)} modules imported, {len(ours)} of them repro's "
               f"({sum(row[0] for row in ours) / 1000:.1f} ms own time); "
               + ("a __pycache__ under src/ was read"
                  if cached else "repro modules compiled from source"))
    if args.markdown:
        print(f"### {args.top} costliest imports of a plain run\n")
        print(summary + "\n")
        print("| own ms | cumulative ms | module |")
        print("| ---: | ---: | --- |")
        for own, cumulative, module in costliest:
            print(f"| {own / 1000:.2f} | {cumulative / 1000:.2f} "
                  f"| `{module}` |")
    else:
        print(summary)
        print(f"{'own ms':>8} {'cum ms':>8}  module")
        for own, cumulative, module in costliest:
            print(f"{own / 1000:8.2f} {cumulative / 1000:8.2f}  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
