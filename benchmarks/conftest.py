"""Benchmark-harness defaults.

The default bench scale of 0.4 shortens every window while preserving
every qualitative shape; a cold run of the whole harness at that scale
takes about three minutes on two workers (EXPERIMENTS.md records the
measurement).  The full-fidelity windows (REPRO_SCALE=1.0) take
proportionally longer.  Set REPRO_SCALE=1.0 to regenerate the numbers
recorded in EXPERIMENTS.md.

Simulation results are cached on disk (``.repro_cache``), so figures that
share runs (10-16) simulate each configuration once.

Benches opt into parallel sweeps: cache misses fan out over REPRO_JOBS
worker processes (all cores unless the environment says otherwise).
Results are bit-identical to serial runs, so the cache stays valid either
way.
"""

import os
from pathlib import Path

import pytest

os.environ.setdefault("REPRO_SCALE", "0.4")
os.environ.setdefault("REPRO_JOBS", str(os.cpu_count() or 1))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_table(results_dir):
    """Write a rendered table to benchmarks/results/<name>.txt and echo it."""
    from repro.analysis.report import render

    def _save(name, table):
        text = render(table)
        (results_dir / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return text

    return _save
