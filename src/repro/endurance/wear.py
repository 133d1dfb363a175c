"""Wear accounting and lifetime computation.

The simulator records wear in *normal-write equivalents* (see
:meth:`repro.endurance.model.EnduranceModel.damage_per_write`).  Lifetime is
then derived under the paper's assumptions:

* the observed execution window repeats cyclically forever;
* Start-Gap wear leveling spreads wear across a bank at efficiency
  ``leveling_efficiency`` (0.9, the paper's own Ratio_quota; the Start-Gap
  paper reports ~0.95 of ideal);
* the system dies when the first block of the most-worn bank reaches its
  endurance limit.

With per-bank damage D (normal-write equivalents) accumulated over a window
of T_sim nanoseconds, a bank of N_blk blocks with per-block endurance E lives

    lifetime = T_sim * eta * N_blk * E / D.

This is the same algebra the paper's Wear Quota bound uses
(WearBound_bank = BlkNum * Endur_blk * T_sample / T_lifetime * Ratio_quota).

For small memories (unit tests, detailed studies) a per-block mode tracks
exact damage per physical block through a live Start-Gap remapper.

With the sanitizer armed (``sanitize=True``, or ``REPRO_SANITIZE=1`` when
the argument is left at ``None``) every recorded write is checked for the
wear-accounting invariants: fractions and slow factors in their legal
ranges, and per-bank damage monotone nondecreasing.  The companion
conservation check - controller-issued writes equal the sum of per-bank
recorded writes - lives in
:meth:`repro.memory.controller.MemoryController._record_wear`, the other
side of that seam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import params
from repro.endurance.model import EnduranceModel
from repro.sim.sanitize import check, resolve

if TYPE_CHECKING:
    from repro.endurance.startgap import StartGap


@dataclass
class BankWearRecord:
    """Per-bank tallies sufficient to recompute lifetime for any exponent."""

    normal_writes: float = 0.0
    slow_writes_by_factor: Dict[float, float] = field(default_factory=dict)

    def add(self, slow_factor: float, amount: float = 1.0) -> None:
        if slow_factor == 1.0:
            self.normal_writes += amount
        else:
            self.slow_writes_by_factor[slow_factor] = (
                self.slow_writes_by_factor.get(slow_factor, 0.0) + amount
            )

    def damage(self, model: EnduranceModel) -> float:
        """Total damage in normal-write equivalents under ``model``."""
        total = self.normal_writes * model.damage_per_write(1.0)
        for factor, count in self.slow_writes_by_factor.items():
            total += count * model.damage_per_write(factor)
        return total

    @property
    def total_writes(self) -> float:
        return self.normal_writes + sum(self.slow_writes_by_factor.values())

    def reset(self) -> None:
        """Zero the tallies in place (start of a measurement window)."""
        self.normal_writes = 0.0
        self.slow_writes_by_factor.clear()

    def copy(self) -> "BankWearRecord":
        """Independent snapshot of the tallies.

        The record is a float plus one flat dict, so a shallow dict copy is
        a full deep copy; ``RunResult`` collection uses this instead of
        ``copy.deepcopy``, which costs ~30x more per record.
        """
        return BankWearRecord(
            normal_writes=self.normal_writes,
            slow_writes_by_factor=dict(self.slow_writes_by_factor),
        )


class WearTracker:
    """Tracks wear per bank and converts it to a system lifetime."""

    def __init__(
        self,
        num_banks: int,
        blocks_per_bank: int,
        model: Optional[EnduranceModel] = None,
        leveling_efficiency: float = params.START_GAP_EFFICIENCY,
        detailed: bool = False,
        start_gap_psi: int = params.START_GAP_PSI,
        sanitize: Optional[bool] = None,
    ) -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        if blocks_per_bank < 1:
            raise ValueError("blocks_per_bank must be >= 1")
        if not 0 < leveling_efficiency <= 1.0:
            raise ValueError("leveling_efficiency must be in (0, 1]")
        self.num_banks = num_banks
        self.blocks_per_bank = blocks_per_bank
        self.model = model if model is not None else EnduranceModel()
        self.leveling_efficiency = leveling_efficiency
        self._records: List[BankWearRecord] = [
            BankWearRecord() for _ in range(num_banks)
        ]
        self.detailed = detailed
        self._sanitize = resolve(sanitize)
        self._damage_watermarks: List[float] = [0.0] * num_banks
        self.remappers: List[StartGap]
        self.block_damage: List[List[float]]
        if detailed:
            from repro.endurance import startgap
            self.remappers = [
                startgap.StartGap(blocks_per_bank, psi=start_gap_psi,
                                  sanitize=self._sanitize)
                for _ in range(num_banks)
            ]
            self.block_damage = [
                [0.0] * (blocks_per_bank + 1) for _ in range(num_banks)
            ]
        else:
            self.remappers = []
            self.block_damage = []
        # Epoch buffers (see record_write): whole writes (fraction == 1.0)
        # accumulate in flat per-bank buffers - a float count of normal
        # writes and an insertion-ordered {factor: count} dict per bank -
        # and are folded into the records by flush_pending.  Fractional
        # writes (cancellations, Flip-N-Write scaling) flush first, which
        # preserves the factor-dict insertion order the JSON exports
        # depend on.  The sanitizer and detailed per-block tracking check
        # or place every write as it happens, so they disable buffering.
        self._buffering = not detailed and not self._sanitize
        self._pend_normal: List[float] = [0.0] * num_banks
        self._pend_slow: List[Dict[float, float]] = [
            {} for _ in range(num_banks)
        ]
        self._pend_dirty = False

    def record_write(
        self, bank: int, slow_factor: float, block: Optional[int] = None,
        fraction: float = 1.0,
    ) -> None:   # simlint: hotpath
        """Account ``fraction`` of one write at ``slow_factor`` to ``bank``.

        ``fraction`` < 1 models a cancelled write attempt that only partially
        stressed the cell.  A whole write is one bump in the epoch buffers
        when buffering is on; everything else lands in the records at once.
        """
        if fraction == 1.0 and self._buffering:
            if slow_factor == 1.0:
                self._pend_normal[bank] += 1.0
            else:
                pend = self._pend_slow[bank]
                pend[slow_factor] = pend.get(slow_factor, 0.0) + 1.0
            self._pend_dirty = True
            return
        if self._pend_dirty:
            self.flush_pending()
        if self._sanitize:
            check(
                0 <= bank < self.num_banks, "wear-conservation",
                "write recorded to a bank outside the tracked range",
                bank=bank, num_banks=self.num_banks,
            )
            check(
                fraction >= 0.0, "wear-monotonicity",
                "negative write fraction would erase recorded damage",
                bank=bank, fraction=fraction, slow_factor=slow_factor,
            )
            check(
                slow_factor >= 1.0, "wear-monotonicity",
                "slow factor below 1.0 has no defined damage",
                bank=bank, slow_factor=slow_factor,
            )
        self._records[bank].add(slow_factor, fraction)
        if self._sanitize:
            damage = self._records[bank].damage(self.model)
            check(
                damage >= self._damage_watermarks[bank], "wear-monotonicity",
                "per-bank damage decreased",
                bank=bank, damage=damage,
                watermark=self._damage_watermarks[bank],
            )
            self._damage_watermarks[bank] = damage
        if self.detailed and block is not None:
            remapper = self.remappers[bank]
            physical = remapper.remap(block % self.blocks_per_bank)
            damage_inc = self.model.damage_per_write(slow_factor) * fraction
            self.block_damage[bank][physical] += damage_inc
            remapper.record_write()

    @property
    def records(self) -> List[BankWearRecord]:
        """Per-bank tallies, with the epoch buffers folded in first."""
        if self._pend_dirty:
            self.flush_pending()
        return self._records

    def flush_pending(self) -> None:
        """Fold the epoch buffers into the per-bank records.

        Runs at every read of :attr:`records` (the telemetry heatmap probe
        reads them once per epoch); per-bank first-seen factor order is
        preserved because each pending dict is insertion-ordered.
        """
        if not self._pend_dirty:
            return
        pend_normal = self._pend_normal
        pend_slow = self._pend_slow
        for bank, record in enumerate(self._records):
            count = pend_normal[bank]
            if count:
                record.normal_writes += count
                pend_normal[bank] = 0.0
            pend = pend_slow[bank]
            if pend:
                by_factor = record.slow_writes_by_factor
                for factor, amount in pend.items():
                    by_factor[factor] = by_factor.get(factor, 0.0) + amount
                pend.clear()
        self._pend_dirty = False

    def reset_records(self) -> None:
        """Zero every bank tally (used when the warmup window ends)."""
        for record in self.records:
            record.reset()
        self._damage_watermarks = [0.0] * self.num_banks

    def bank_damage(self, bank: int,
                    model: Optional[EnduranceModel] = None) -> float:
        return self.records[bank].damage(model or self.model)

    def bank_damages(self, model: Optional[EnduranceModel] = None) -> List[float]:
        """All banks' cumulative damage, in bank order.

        This is the telemetry wear-heatmap probe: O(num_banks) per call,
        read-only (after folding in the epoch buffers), and sampled once
        per epoch.
        """
        chosen = model or self.model
        return [record.damage(chosen) for record in self.records]

    def bank_lifetime_ns(
        self, bank: int, window_ns: float,
        model: Optional[EnduranceModel] = None,
    ) -> float:
        """Lifetime of one bank assuming the window repeats cyclically."""
        damage = self.bank_damage(bank, model)
        if damage <= 0:
            return float("inf")
        capacity = (
            self.blocks_per_bank
            * (model or self.model).base_endurance
            * self.leveling_efficiency
        )
        return window_ns * capacity / damage

    def system_lifetime_ns(
        self, window_ns: float, model: Optional[EnduranceModel] = None,
    ) -> float:
        """System dies when its most-worn bank dies."""
        return min(
            self.bank_lifetime_ns(b, window_ns, model)
            for b in range(self.num_banks)
        )

    def system_lifetime_years(
        self, window_ns: float, model: Optional[EnduranceModel] = None,
    ) -> float:
        return self.system_lifetime_ns(window_ns, model) / params.NS_PER_YEAR

    def detailed_max_damage(self, bank: int) -> float:
        """Max per-block damage (detailed mode only)."""
        if not self.detailed:
            raise RuntimeError("detailed per-block tracking is disabled")
        return max(self.block_damage[bank])

    def total_writes(self) -> float:
        return sum(r.total_writes for r in self.records)
