"""Run results: every number a paper figure needs, from one simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import params
from repro.endurance.model import EnduranceModel
from repro.endurance.wear import BankWearRecord


@dataclass
class RunResult:
    """Measured outcomes of one simulation window.

    The per-bank wear records carry enough information to recompute the
    lifetime under *any* Expo_Factor without re-simulating (timing does not
    depend on the endurance exponent) - this is how Figure 17 is produced.
    """

    workload: str
    policy: str
    slow_factor: float
    num_banks: int
    expo_factor: float

    window_ns: float = 0.0
    instructions: int = 0
    accesses: int = 0
    ipc: float = 0.0

    lifetime_years: float = 0.0
    bank_utilization: float = 0.0
    drain_fraction: float = 0.0
    avg_read_latency_ns: float = 0.0

    llc_misses: int = 0
    llc_hits: int = 0
    mpki: float = 0.0
    writebacks: int = 0
    eager_writebacks: int = 0
    wasted_eager: int = 0

    reads_issued: int = 0
    read_row_hits: int = 0
    read_row_misses: int = 0
    writes_issued_normal: int = 0
    writes_issued_slow: int = 0
    eager_issued: int = 0
    cancellations: int = 0
    pauses: int = 0
    drain_events: int = 0

    read_energy_pj: float = 0.0
    write_energy_pj: float = 0.0

    bank_utilizations: List[float] = field(default_factory=list)
    avg_read_queue_depth: float = 0.0
    avg_write_queue_depth: float = 0.0

    wear_records: List[BankWearRecord] = field(default_factory=list)
    blocks_per_bank: int = 0
    leveling_efficiency: float = params.START_GAP_EFFICIENCY

    # Fault injection (repro.faults).  All zeros/sentinels when the
    # subsystem is disabled (faults=None), keeping old serialisations
    # semantically unchanged.  The *_ns times are absolute simulated
    # times from the start of the timed run (-1.0 = never happened; a
    # finite sentinel, not inf, so the JSON round trip stays exact).
    faults_enabled: bool = False
    uncorrectable: bool = False
    time_to_first_failure_ns: float = -1.0
    time_to_uncorrectable_ns: float = -1.0
    cells_failed: int = 0
    lines_retired: int = 0
    fault_write_retries: int = 0
    ecc_corrected_writes: int = 0

    @property
    def total_energy_pj(self) -> float:
        return self.read_energy_pj + self.write_energy_pj

    @property
    def writes_issued_total(self) -> int:
        return self.writes_issued_normal + self.writes_issued_slow

    @property
    def requests_issued_total(self) -> int:
        return self.reads_issued + self.writes_issued_total

    def lifetime_for_expo(self, expo_factor: float,
                          base_endurance: float = params.BASE_ENDURANCE,
                          ) -> float:
        """Lifetime in years re-evaluated under a different Expo_Factor.

        Exact (not an approximation): write timing never depends on the
        endurance exponent, only the damage bookkeeping does.
        """
        if not self.wear_records:
            return float("inf")
        model = EnduranceModel(
            base_endurance=base_endurance, expo_factor=expo_factor,
        )
        capacity = (
            self.blocks_per_bank * base_endurance * self.leveling_efficiency
        )
        worst = float("inf")
        for record in self.wear_records:
            damage = record.damage(model)
            if damage <= 0:
                continue
            worst = min(worst, self.window_ns * capacity / damage)
        return worst / params.NS_PER_YEAR if worst != float("inf") else worst
