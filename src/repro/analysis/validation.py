"""Analytic cross-checks on simulation results.

A trace-driven simulator can silently drift (double-counted busy time,
lost completions, wear/energy bookkeeping skew).  These validators
re-derive quantities from independent counters and flag disagreements.
Every sanitized run (``REPRO_SANITIZE=1`` or ``SimConfig(sanitize=True)``)
applies them to its result and raises the ``result-consistency``
:class:`~repro.sim.sanitize.InvariantViolation` on any failure; users can
call :func:`validate_result` on their own results too.

Checks:

* **busy-time consistency** - bank-busy time implied by the issued
  operation mix brackets the reported utilization;
* **bus capacity** - data transferred never exceeds what the shared
  64-bit bus can move in the window;
* **lifetime re-derivation** - the reported lifetime equals the analytic
  formula applied to the recorded per-bank write mix;
* **request conservation** - the row hit/miss split sums to the issued
  reads, issued plus still-queued reads cover the LLC misses, MPKI
  consistent with misses and instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import params
from repro.endurance.model import EnduranceModel
from repro.memory.timing import MemoryTiming
from repro.sim.stats import RunResult


@dataclass
class ValidationReport:
    failures: List[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, message: str) -> None:
        self.checks_run += 1
        if not condition:
            self.failures.append(message)

    def raise_if_failed(self) -> None:
        if self.failures:
            raise AssertionError(
                "result validation failed:\n  " + "\n  ".join(self.failures)
            )


def expected_busy_time_ns(result: RunResult,
                          timing: MemoryTiming = None) -> float:
    """Bank-busy time implied by the issued operation mix (no bus waits)."""
    timing = timing if timing is not None else MemoryTiming(
        slow_factor=result.slow_factor,
    )
    busy = (
        result.read_row_hits * timing.read_service_ns(row_hit=True)
        + result.read_row_misses * timing.read_service_ns(row_hit=False)
        + result.writes_issued_normal * timing.write_service_ns(slow=False)
        + result.writes_issued_slow * timing.write_service_ns(slow=True)
    )
    # Cancelled/paused attempts occupied their bank only partially;
    # subtract the unexecuted portion pessimistically (a full slow pulse
    # per interrupt).  Paused writes additionally re-issue with only the
    # remaining pulse, so each pause overstates the issue mix by up to one
    # pulse as well.
    interrupts = result.cancellations + result.pauses
    busy -= interrupts * timing.write_pulse_ns(slow=True)
    return max(0.0, busy)


def validate_result(result: RunResult,
                    reads_queued: int = 0) -> ValidationReport:
    """Run every cross-check on ``result``.

    ``reads_queued`` is the read-queue occupancy when the window closed:
    those misses reached the controller but were never issued, which
    matters for runs that end uncorrectable after a few hundred accesses.
    """
    report = ValidationReport()
    timing = MemoryTiming(slow_factor=result.slow_factor)

    # --- busy time vs reported utilization -------------------------------
    window_capacity = result.window_ns * result.num_banks
    if window_capacity > 0:
        floor = expected_busy_time_ns(result, timing) / window_capacity
        # Bus waits can only lengthen occupancy, so the reported value may
        # exceed the analytic floor, never undercut it by much (boundary
        # ops straddling the window edges allow a small tolerance).
        report.check(
            result.bank_utilization >= floor * 0.85 - 0.02,
            f"utilization {result.bank_utilization:.3f} below analytic "
            f"floor {floor:.3f}",
        )
        report.check(
            result.bank_utilization <= 1.0 + 1e-9,
            f"utilization {result.bank_utilization:.3f} exceeds 1.0",
        )

    # --- bus capacity -----------------------------------------------------
    if result.window_ns > 0:
        transfers = result.reads_issued + result.writes_issued_total
        bus_time = transfers * timing.burst_ns
        report.check(
            bus_time <= result.window_ns * 1.05 + 1000,
            f"bus moved {transfers} lines needing {bus_time:.0f} ns in a "
            f"{result.window_ns:.0f} ns window",
        )

    # --- lifetime re-derivation --------------------------------------------
    if result.wear_records and result.window_ns > 0:
        model = EnduranceModel(expo_factor=result.expo_factor)
        capacity = (result.blocks_per_bank * model.base_endurance
                    * result.leveling_efficiency)
        worst = float("inf")
        for record in result.wear_records:
            damage = record.damage(model)
            if damage > 0:
                worst = min(worst, result.window_ns * capacity / damage)
        derived_years = worst / params.NS_PER_YEAR
        if derived_years == float("inf"):
            report.check(
                result.lifetime_years == float("inf"),
                "result reports finite lifetime but wear records are empty",
            )
        else:
            report.check(
                abs(derived_years - result.lifetime_years)
                <= 1e-6 * max(1.0, derived_years),
                f"lifetime {result.lifetime_years:.3f} y != derived "
                f"{derived_years:.3f} y",
            )

    # --- request conservation ----------------------------------------------
    report.check(
        result.read_row_hits + result.read_row_misses == result.reads_issued,
        "row hit/miss split does not sum to issued reads",
    )
    report.check(
        result.reads_issued + reads_queued >= result.llc_misses * 0.9,
        f"{result.reads_issued} reads issued and {reads_queued} queued for "
        f"{result.llc_misses} misses",
    )
    if result.instructions > 0:
        derived_mpki = result.llc_misses * 1000.0 / result.instructions
        report.check(
            abs(derived_mpki - result.mpki) < 1e-6,
            f"mpki {result.mpki:.3f} != derived {derived_mpki:.3f}",
        )

    # --- energy decomposition ------------------------------------------------
    report.check(
        result.read_energy_pj >= 0 and result.write_energy_pj >= 0,
        "negative energy component",
    )
    if result.writes_issued_total > 0:
        report.check(
            result.write_energy_pj > 0,
            "writes issued but zero write energy",
        )
    return report
