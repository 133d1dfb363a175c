"""Tests for the analytic result validators, plus validation of real runs."""

import pytest

from repro import SimConfig, run_simulation
from repro.analysis.validation import (
    ValidationReport,
    expected_busy_time_ns,
    validate_result,
)
from repro.faults import FaultConfig
from repro.sim.stats import RunResult
from repro.sim.system import System

FAST = dict(warmup_accesses=6000, measure_accesses=12000,
            llc_size_bytes=256 * 1024, functional_warmup_max=40000)


class TestReport:
    def test_passing_check(self):
        report = ValidationReport()
        report.check(True, "fine")
        assert report.ok and report.checks_run == 1
        report.raise_if_failed()

    def test_failing_check(self):
        report = ValidationReport()
        report.check(False, "broken")
        assert not report.ok
        with pytest.raises(AssertionError, match="broken"):
            report.raise_if_failed()


class TestExpectedBusyTime:
    def test_read_mix(self):
        result = RunResult(workload="x", policy="Norm", slow_factor=3.0,
                           num_banks=4, expo_factor=2.0)
        result.reads_issued = 10
        result.read_row_hits = 4
        result.read_row_misses = 6
        busy = expected_busy_time_ns(result)
        assert busy == pytest.approx(4 * 22.5 + 6 * 142.5)

    def test_writes_and_cancellations(self):
        result = RunResult(workload="x", policy="Slow+SC", slow_factor=3.0,
                           num_banks=4, expo_factor=2.0)
        result.writes_issued_slow = 3
        result.cancellations = 1
        busy = expected_busy_time_ns(result)
        assert busy == pytest.approx(3 * 470 - 450)


@pytest.mark.parametrize("policy", [
    "Norm", "Slow+SC", "B-Mellow+SC", "BE-Mellow+SC", "E-Norm+NC",
    "BE-Mellow+SC+WQ", "Slow+SC+WP",
])
@pytest.mark.parametrize("workload", ["GemsFDTD", "lbm", "mcf"])
def test_real_runs_validate(policy, workload):
    """Every (workload, policy) integration run passes all cross-checks."""
    result = run_simulation(SimConfig(workload=workload, policy=policy,
                                      **FAST))
    report = validate_result(result)
    report.raise_if_failed()
    assert report.checks_run >= 6


def test_validator_catches_corruption():
    result = run_simulation(SimConfig(workload="GemsFDTD", policy="Norm",
                                      **FAST))
    result.lifetime_years *= 2        # corrupt the lifetime
    assert not validate_result(result).ok


def test_validator_catches_bad_row_split():
    result = run_simulation(SimConfig(workload="GemsFDTD", policy="Norm",
                                      **FAST))
    result.read_row_hits += 1
    assert not validate_result(result).ok


def test_sanitized_uncorrectable_run_validates():
    """A fault run that ends uncorrectable a few hundred accesses in still
    has misses waiting in the read queue; they count as requested reads."""
    faults = FaultConfig(wear_acceleration=5e6, spare_lines_per_bank=2,
                         max_write_retries=1, stuck_mismatch_probability=0.5)
    config = SimConfig(workload="gups", policy="Norm", seed=3, faults=faults,
                       sanitize=True).scaled(0.02)
    system = System(config)
    result = system.run()              # validates itself when sanitized
    assert result.uncorrectable
    queued = len(system.controller.read_q)
    assert result.reads_issued < 0.9 * result.llc_misses
    assert not validate_result(result).ok
    report = validate_result(result, reads_queued=queued)
    assert report.ok, report.failures
