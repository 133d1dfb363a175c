"""The fault injector: per-cell endurance limits, write-verify, spares.

One :class:`FaultInjector` lives per :class:`repro.sim.system.System`
when ``SimConfig.faults`` is set.  The memory controller feeds it from
two hook points:

* :meth:`FaultInjector.record_damage` - every time wear is deposited
  (write completion *and* partial cancelled pulses), the touched line's
  cells age; cells whose sampled endurance limit is crossed die and
  become stuck-at faults.
* :meth:`FaultInjector.verify_write` - at write completion, the
  write-verify step compares the line against what was written.  Each
  dead cell mismatches with ``stuck_mismatch_probability``.  The
  outcome ladder is::

      no mismatch                     -> WRITE_OK
      mismatch, retries remain        -> WRITE_RETRY   (slow re-issue)
      mismatch <= ECC capability      -> WRITE_CORRECTED
      beyond ECC, spare available     -> WRITE_RETIRED (remap to spare)
      beyond ECC, no spare            -> WRITE_FATAL   (terminal)

Determinism: all randomness comes from the injected seeded
``random.Random`` - this module never calls into the ``random`` module
(simlint rule SIM010 enforces that) - and line state is sampled lazily
in first-touch order, which the seeded simulation makes reproducible.
Timestamps come from the injected ``clock`` (the event queue's ``now``),
so the injector is also wall-clock-free.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.endurance.model import EnduranceModel
from repro.endurance.variability import EnduranceVariability
from repro.faults.config import FaultConfig
from repro.faults.ecc import CORRECTABLE_BITS
from repro.faults.outcomes import (WRITE_CORRECTED, WRITE_FATAL, WRITE_OK,
                                   WRITE_RETIRED, WRITE_RETRY)

Clock = Callable[[], float]


@dataclass
class FaultStats:
    """Lifetime-of-run fault tallies (never reset at end of warmup:
    time-to-failure is a survival time measured from the start of the
    timed run, not a windowed rate)."""

    cells_failed: int = 0
    write_retries: int = 0
    corrected_writes: int = 0
    lines_retired: int = 0
    uncorrectable: bool = False
    first_failure_ns: Optional[float] = None
    uncorrectable_ns: Optional[float] = None


@dataclass
class _LineState:
    """Wear state of one line: sorted cell limits + accumulated damage.

    ``limits`` holds the per-cell endurance limits in *accelerated*
    damage units, sorted ascending so the number of dead cells is a
    single bisect of the damage counter.
    """

    limits: List[float]
    damage: float = 0.0
    dead: int = 0
    replaced: int = 0   # times this logical address was remapped to a spare


class FaultInjector:
    """Deterministic, seedable fault injection for one simulated system."""

    def __init__(self, config: FaultConfig, num_banks: int,
                 model: EnduranceModel, rng: random.Random,
                 clock: Clock) -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        self.config = config
        self.model = model
        self._rng = rng
        self._clock = clock
        self.stats = FaultStats()
        # Lazy, sparse line state: workloads touch a tiny fraction of a
        # 16 GiB address space, so per-line state materialises on first
        # touch (in deterministic first-touch order).
        self._lines: List[Dict[int, _LineState]] = [
            {} for _ in range(num_banks)
        ]
        self.spares_left: List[int] = (
            [config.spare_lines_per_bank] * num_banks
        )
        self.retired_per_bank: List[int] = [0] * num_banks
        self._variability = EnduranceVariability(
            median_endurance=config.median_endurance, sigma=config.sigma,
        )

    # ------------------------------------------------------------------
    # Line state
    # ------------------------------------------------------------------

    def _sample_limits(self) -> List[float]:
        limits = self._variability.sample_cell_limits(
            self._rng, self.config.cells_per_line,
        )
        acceleration = self.config.wear_acceleration
        if acceleration != 1.0:
            limits = [limit / acceleration for limit in limits]
        limits.sort()
        return limits

    def _state(self, bank: int, line: int) -> _LineState:
        states = self._lines[bank]
        state = states.get(line)
        if state is None:
            state = _LineState(limits=self._sample_limits())
            states[line] = state
        return state

    def dead_cells(self, bank: int, line: int) -> int:
        """Current stuck-at cell count of a line (0 if never touched)."""
        state = self._lines[bank].get(line)
        return state.dead if state is not None else 0

    # ------------------------------------------------------------------
    # Controller hooks
    # ------------------------------------------------------------------

    def record_damage(self, bank: int, line: int, slow_factor: float,
                      fraction: float) -> int:
        """Deposit wear on a line; returns the number of newly dead cells.

        ``fraction`` is the executed share of the programming pulse (1.0
        for a completed write, partial for cancelled pulses), already
        scaled by any wear limiter (Flip-N-Write).  Damage is measured
        in normal-write equivalents, so a slow write at factor f costs
        f**-Expo_Factor - the Mellow Writes advantage carries straight
        into cell survival.
        """
        if fraction <= 0.0:
            return 0
        state = self._state(bank, line)
        state.damage += self.model.damage_per_write(slow_factor) * fraction
        dead = bisect_right(state.limits, state.damage)
        newly_dead = dead - state.dead
        if newly_dead > 0:
            state.dead = dead
            self.stats.cells_failed += newly_dead
            if self.stats.first_failure_ns is None:
                self.stats.first_failure_ns = self._clock()
        return newly_dead

    def verify_write(self, bank: int, line: int, retries: int) -> str:
        """Write-verify at completion; returns a WRITE_* outcome.

        ``retries`` is how many verify-retries this request has already
        burned; the caller increments it when the outcome is
        WRITE_RETRY and re-issues on the slow path.
        """
        state = self._lines[bank].get(line)
        if state is None or state.dead == 0:
            return WRITE_OK
        probability = self.config.stuck_mismatch_probability
        mismatches = 0
        for _ in range(state.dead):
            if self._rng.random() < probability:
                mismatches += 1
        if mismatches == 0:
            return WRITE_OK
        if retries < self.config.max_write_retries:
            self.stats.write_retries += 1
            return WRITE_RETRY
        if mismatches <= CORRECTABLE_BITS:
            self.stats.corrected_writes += 1
            return WRITE_CORRECTED
        return self._retire(bank, line, state)

    # ------------------------------------------------------------------
    # Retirement / terminal state
    # ------------------------------------------------------------------

    def _retire(self, bank: int, line: int, state: _LineState) -> str:
        if self.spares_left[bank] <= 0:
            self.stats.uncorrectable = True
            if self.stats.uncorrectable_ns is None:
                self.stats.uncorrectable_ns = self._clock()
            return WRITE_FATAL
        self.spares_left[bank] -= 1
        self.stats.lines_retired += 1
        self.retired_per_bank[bank] += 1
        # Remap: the logical line now lives on a fresh spare whose cells
        # are sampled immediately (still from the injected RNG, still in
        # deterministic order).  The write lands on the spare, so the
        # request completes successfully.
        self._lines[bank][line] = _LineState(
            limits=self._sample_limits(), replaced=state.replaced + 1,
        )
        return WRITE_RETIRED

    @property
    def uncorrectable(self) -> bool:
        return self.stats.uncorrectable

    def total_spares_left(self) -> int:
        return sum(self.spares_left)
