"""Memory timing parameters (Table II) and the slow-write latency ladder."""

from __future__ import annotations

from dataclasses import dataclass

from repro import params


@dataclass(frozen=True)
class MemoryTiming:
    """All Table II timing constants, in nanoseconds.

    Writes are write-through (they bypass the row buffer), so a write costs
    the data burst plus the programming pulse t_WP, which is scaled by the
    slow factor.  Reads cost an activation (t_RCD) on a row-buffer miss plus
    t_CAS and the data burst.
    """

    t_rcd_ns: float = params.T_RCD_NS
    t_cas_ns: float = params.T_CAS_NS
    t_wp_normal_ns: float = params.T_WP_NORMAL_NS
    t_faw_ns: float = params.T_FAW_NS
    t_faw_activates: int = params.T_FAW_ACTIVATES
    burst_ns: float = params.BURST_NS
    slow_factor: float = params.SLOW_FACTOR_DEFAULT
    cancel_penalty_ns: float = params.MEM_CLK_NS

    def write_pulse_ns(self, slow: bool) -> float:
        """Programming-pulse width for a normal or slow write."""
        if slow:
            return self.t_wp_normal_ns * self.slow_factor
        return self.t_wp_normal_ns

    def write_factor(self, slow: bool) -> float:
        """Slowdown factor of the chosen write speed (1.0 or slow_factor)."""
        return self.slow_factor if slow else 1.0

    def read_service_ns(self, row_hit: bool) -> float:
        """Bank-occupancy time of a read (excluding bus contention)."""
        latency = self.t_cas_ns + self.burst_ns
        if not row_hit:
            latency += self.t_rcd_ns
        return latency

    def write_service_ns(self, slow: bool) -> float:
        """Bank-occupancy time of a write (data burst + programming pulse)."""
        return self.burst_ns + self.write_pulse_ns(slow)

    @staticmethod
    def with_slow_factor(factor: float) -> "MemoryTiming":
        if factor < 1.0:
            raise ValueError("slow factor must be >= 1.0")
        return MemoryTiming(slow_factor=factor)
