"""Wear-leveling schemes and an empirical leveling-efficiency evaluator.

The paper uses Start-Gap [Qureshi et al., MICRO 2009] at bank granularity
and credits it ~0.9-0.95 of ideal leveling (its ``Ratio_quota`` = 0.9 exists
precisely to absorb the leveler's imperfection).  This module puts two
levelers behind one interface:

* :class:`StartGapLeveler`  - the paper's scheme (wraps
  :class:`repro.endurance.startgap.StartGap`);
* :class:`NoLeveler` - the identity baseline.

:func:`measure_efficiency` drives any leveler with a hot-spotted write
stream over a small region and reports the achieved fraction of ideal
lifetime (ideal = perfectly uniform wear), which is how the package's
default ``START_GAP_EFFICIENCY`` was validated.
"""

from __future__ import annotations

import random
from typing import Dict, Protocol

from repro.endurance.startgap import StartGap


class WearLeveler(Protocol):
    """Minimal interface: translate an address, account a write."""

    num_lines: int

    def remap(self, logical: int) -> int:
        ...

    def record_write(self) -> None:
        ...


class NoLeveler:
    """Identity mapping - the no-wear-leveling baseline."""

    def __init__(self, num_lines: int) -> None:
        if num_lines < 1:
            raise ValueError("num_lines must be >= 1")
        self.num_lines = num_lines

    def remap(self, logical: int) -> int:
        if not 0 <= logical < self.num_lines:
            raise IndexError(f"logical index {logical} out of range")
        return logical

    def record_write(self) -> None:
        pass


class StartGapLeveler:
    """The paper's Start-Gap scheme behind the common interface."""

    def __init__(self, num_lines: int, psi: int = 100) -> None:
        self._inner = StartGap(num_lines, psi=psi)
        self.num_lines = num_lines

    def remap(self, logical: int) -> int:
        return self._inner.remap(logical)

    def record_write(self) -> None:
        self._inner.record_write()


def measure_efficiency(
    leveler: WearLeveler,
    writes: int = 200_000,
    hot_fraction: float = 0.9,
    hot_lines: int = 4,
    seed: int = 1,
) -> float:
    """Fraction of ideal lifetime the leveler achieves under a hotspot.

    Drives ``writes`` writes, ``hot_fraction`` of them to ``hot_lines``
    lines, the rest uniform.  Ideal uniform wear puts writes/num_lines on
    every line; the achieved lifetime is limited by the most-worn line, so

        efficiency = (writes / num_lines) / max_line_wear
    """
    if not 0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1]")
    if not 0 < hot_lines <= leveler.num_lines:
        raise ValueError("need 0 < hot_lines <= num_lines")
    rng = random.Random(seed)
    # Start-Gap owns one spare physical slot beyond num_lines, so index
    # wear by whatever the leveler returns.
    wear: Dict[int, int] = {}
    for _ in range(writes):
        if rng.random() < hot_fraction:
            logical = rng.randrange(hot_lines)
        else:
            logical = rng.randrange(leveler.num_lines)
        physical = leveler.remap(logical)
        wear[physical] = wear.get(physical, 0) + 1
        leveler.record_write()
    worst = max(wear.values())
    if worst == 0:
        return 1.0
    return (writes / leveler.num_lines) / worst
