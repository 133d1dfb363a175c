"""Configuration for the fault-injection subsystem.

A :class:`FaultConfig` hangs off :class:`repro.sim.config.SimConfig` as
``faults=...``; the default ``faults=None`` disables the subsystem
entirely and is guaranteed bit-identical to a build without this
package (the fault key is only appended to ``SimConfig.cache_key()``
when faults are enabled, so pre-existing cache entries keep their
digests).

``median_endurance`` is the *physical* median cell endurance in
normal-speed-write equivalents (the paper's 5e6 writes).  Simulated
windows cover microseconds, not years, so Monte Carlo lifetime studies
compress time with ``wear_acceleration``: every unit of deposited
damage is multiplied by it, exactly like accelerated-aging lab tests.
Slow writes keep their full advantage under acceleration - a 3x slow
write still deposits 1/9 of the damage at Expo_Factor 2 - so relative
survival times between policies are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro import params

#: JSON-safe scalar union used in cache keys.
KeyItem = Union[str, int, float]

#: FaultConfig fields deliberately outside key().  Empty on purpose -
#: every fault knob changes simulated outcomes, so every field is part of
#: the digest.  Adding a field here (with a reason) is the explicit act
#: tests/test_cache_key.py requires before a new knob can stay out of
#: the cache key.
CACHE_KEY_EXCLUDED: dict[str, str] = {}


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault-injection and graceful-degradation pipeline.

    Attributes:
        median_endurance: median per-cell endurance in normal-write
            equivalents (lognormal median).
        sigma: lognormal shape of the cell endurance distribution in
            natural-log space; 0 degenerates to deterministic limits.
        cells_per_line: modelled cells per protected line.  Small on
            purpose: each cell stands for an ECC symbol group, not one
            physical bit, keeping verify draws O(few) per write.
        spare_lines_per_bank: retirement budget; a line whose faults
            exceed ECC capacity remaps here.  When a bank's budget is
            exhausted the next over-capacity line is uncorrectable.
        max_write_retries: bounded write-verify retries per request
            before the outcome escalates to ECC/retirement.  Retries
            re-issue on the Mellow Writes slow path.
        stuck_mismatch_probability: probability that a dead (stuck-at)
            cell disagrees with the data being written; 0.5 models a
            uniformly random stuck value.
        wear_acceleration: accelerated-aging multiplier on deposited
            damage (1.0 = real time; Monte Carlo uses ~1e5-1e6).
    """

    median_endurance: float = params.BASE_ENDURANCE
    sigma: float = 0.3
    cells_per_line: int = 8
    spare_lines_per_bank: int = 32
    max_write_retries: int = 2
    stuck_mismatch_probability: float = 0.5
    wear_acceleration: float = 1.0

    def __post_init__(self) -> None:
        if self.median_endurance <= 0:
            raise ValueError("median_endurance must be positive")
        if self.sigma < 0:
            raise ValueError("sigma cannot be negative")
        if self.cells_per_line < 1:
            raise ValueError("cells_per_line must be >= 1")
        if self.spare_lines_per_bank < 0:
            raise ValueError("spare_lines_per_bank cannot be negative")
        if self.max_write_retries < 0:
            raise ValueError("max_write_retries cannot be negative")
        if not 0.0 <= self.stuck_mismatch_probability <= 1.0:
            raise ValueError("stuck_mismatch_probability must be in [0, 1]")
        if self.wear_acceleration <= 0:
            raise ValueError("wear_acceleration must be positive")

    def key(self) -> Tuple[KeyItem, ...]:
        """JSON-serialisable identity, nested into SimConfig.cache_key()."""
        return (
            "faults", self.median_endurance, self.sigma,
            self.cells_per_line, self.spare_lines_per_bank,
            self.max_write_retries, self.stuck_mismatch_probability,
            self.wear_acceleration,
        )
