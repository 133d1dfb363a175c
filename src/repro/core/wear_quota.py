"""Wear Quota (Section IV-C): per-bank lifetime guarantee.

Execution is divided into sample periods of ``period_ns``.  A bank whose
accumulated wear exceeds the quota of all elapsed periods may only issue
slow writes during the coming period.

    WearBound_blk  = Endur_blk * T_sample / T_lifetime
    WearBound_bank = BlkNum_bank * WearBound_blk * Ratio_quota
    ExceedQuota    = sum(Wear_bank) - WearBound_bank * Num_previous_periods

Wear is counted in normal-write equivalents, which makes the bound directly
comparable to the endurance limit regardless of the write-speed mix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro import params
from repro.telemetry import EV_QUOTA_TRIP, NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.telemetry.metrics import Counter, Gauge


class WearQuota:
    """Per-bank wear-quota accounting and slow-only gating."""

    def __init__(
        self,
        num_banks: int,
        blocks_per_bank: int,
        endurance_per_block: float = params.BASE_ENDURANCE,
        target_lifetime_years: float = params.TARGET_LIFETIME_YEARS,
        period_ns: float = params.WEAR_QUOTA_PERIOD_NS,
        ratio_quota: float = params.RATIO_QUOTA,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if num_banks < 1:
            raise ValueError("num_banks must be >= 1")
        if target_lifetime_years <= 0:
            raise ValueError("target lifetime must be positive")
        if not 0 < ratio_quota <= 1.0:
            raise ValueError("ratio_quota must be in (0, 1]")
        self.num_banks = num_banks
        self.period_ns = period_ns
        target_lifetime_ns = target_lifetime_years * params.NS_PER_YEAR
        wear_bound_blk = endurance_per_block * period_ns / target_lifetime_ns
        self.wear_bound_bank = blocks_per_bank * wear_bound_blk * ratio_quota
        self.cumulative_wear: List[float] = [0.0] * num_banks
        self.slow_only: List[bool] = [False] * num_banks
        self.previous_periods = 0
        self.slow_only_periods = 0   # total bank-periods spent gated
        self._tel = telemetry
        self._trips: Optional[Counter] = None
        self._gated_gauge: Optional[Gauge] = None
        if telemetry.enabled:
            self._trips = telemetry.metrics.counter("quota.trips")
            self._gated_gauge = telemetry.metrics.gauge("quota.banks_gated")

    def record_wear(self, bank: int, damage: float) -> None:
        """Account ``damage`` normal-write equivalents to ``bank``."""
        self.cumulative_wear[bank] += damage

    def exceed_quota(self, bank: int) -> float:
        """ExceedQuota of ``bank`` for the elapsed periods (Section IV-C)."""
        budget = self.wear_bound_bank * self.previous_periods
        return self.cumulative_wear[bank] - budget

    def start_period(self) -> None:
        """Begin a new sample period: refresh every bank's slow-only gate.

        With telemetry enabled, a bank transitioning from free to gated
        emits a ``quota_trip`` trace event, and the ``quota.banks_gated``
        gauge reflects the gate population for the epoch that now begins
        (so it is sampled at the *next* epoch close, describing the epoch
        it governed).
        """
        self.previous_periods += 1
        tel = self._tel
        gated_count = 0
        for bank in range(self.num_banks):
            exceed = self.exceed_quota(bank)
            gated = exceed > 0.0
            if gated:
                self.slow_only_periods += 1
                gated_count += 1
                if tel.enabled and not self.slow_only[bank]:
                    tel.tracer.record(
                        tel.clock(), EV_QUOTA_TRIP, bank=bank,
                        detail=f"exceed={exceed:.4g}",
                    )
                    if self._trips is not None:
                        self._trips.value += 1.0
            self.slow_only[bank] = gated
        if self._gated_gauge is not None:
            self._gated_gauge.set(float(gated_count))

    def is_slow_only(self, bank: int) -> bool:
        return self.slow_only[bank]

    def reset_statistics(self) -> None:
        """Clear accumulated wear (used when the warmup window ends).

        The per-bank slow-only gates are *kept*: they represent the
        mechanism's current control state, not a statistic, and dropping
        them would give every measurement window one ungated burst period.
        """
        self.cumulative_wear = [0.0] * self.num_banks
        self.previous_periods = 0
        self.slow_only_periods = 0
