"""Every exhibit reaches its results through one sweep, and nothing else.

A recording runner stands in for the simulator: its ``sweep`` records
the grid and answers every config with one canned tiny result, and its
``run`` fails.  That pins, without simulating any exhibit:

* each exhibit builds its grid once and sweeps it once;
* configs with equal ``cache_key()`` have equal ``cache_digest()``
  across every grid, so the store (keyed by digest) never holds two
  entries for what the key calls one run;
* ``survival_summary`` normalises to Norm wherever Norm is listed.
"""

import math
from dataclasses import replace
from typing import Dict, List

import pytest

from repro.experiments import (
    ALL_ABLATIONS,
    ALL_FIGURES,
    headline_summary,
    seed_stability,
)
from repro.experiments.faults import survival_summary
from repro.experiments.runner import Runner
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.sim.system import run_simulation
from repro.store import MemoryStore

ANALYTIC = {"fig01", "tab06"}

EXHIBITS = {
    **{name: fn for name, fn in ALL_FIGURES.items() if name not in ANALYTIC},
    **ALL_ABLATIONS,
    "seed_stability": seed_stability,
    "headline_summary": headline_summary,
}


@pytest.fixture(scope="module")
def canned() -> RunResult:
    return run_simulation(SimConfig(
        workload="hmmer", policy="Norm", warmup_accesses=2000,
        measure_accesses=3000, llc_size_bytes=128 * 1024))


class RecordingRunner(Runner):
    """Records every swept grid and answers it with canned results."""

    def __init__(self, answer) -> None:
        super().__init__(store=MemoryStore())
        self.answer = answer
        self.grids: List[List[SimConfig]] = []

    def sweep(self, configs, *args, **kwargs):
        grid = list(configs)
        self.grids.append(grid)
        return [self.answer(config) for config in grid]

    def run(self, config):
        raise AssertionError(f"exhibit ran {config} outside its sweep")


@pytest.fixture
def default_environment(monkeypatch):
    for name in ("REPRO_WORKLOADS", "REPRO_SCALE"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("name", sorted(EXHIBITS))
def test_exhibit_sweeps_its_grid_once(name, canned, default_environment):
    runner = RecordingRunner(lambda config: canned)
    EXHIBITS[name](runner)
    assert len(runner.grids) == 1


class Recorded(Exception):
    """Stops an exhibit once its first grid is recorded."""


def stop(config):
    raise Recorded


def test_equal_cache_keys_have_equal_digests(default_environment):
    digests: Dict[tuple, Dict[str, List[str]]] = {}
    for name in sorted(EXHIBITS):
        runner = RecordingRunner(stop)
        with pytest.raises(Recorded):
            EXHIBITS[name](runner)
        (grid,) = runner.grids
        for config in grid:
            seen = digests.setdefault(config.cache_key(), {})
            seen.setdefault(config.cache_digest(), []).append(name)
    assert len(digests) > 3000
    clashes = {key: seen for key, seen in digests.items() if len(seen) > 1}
    assert not clashes, clashes


def test_survival_vs_norm_whatever_the_policy_order(canned):
    windows = {"Norm": 100.0, "Slow+SC": 300.0}
    runner = RecordingRunner(lambda config: replace(
        canned, uncorrectable=False, window_ns=windows[config.policy]))
    table = survival_summary(runner, policies=("Slow+SC", "Norm"), seeds=2)
    ratios = dict(zip(table.column("policy"),
                      table.column("survival_vs_norm")))
    assert ratios == {"Slow+SC": 3.0, "Norm": 1.0}


def test_survival_vs_norm_is_nan_without_norm(canned):
    runner = RecordingRunner(lambda config: replace(
        canned, uncorrectable=False, window_ns=100.0))
    table = survival_summary(runner, policies=("Slow+SC",), seeds=1)
    assert math.isnan(table.column("survival_vs_norm")[0])
