"""Start-Gap wear leveling (Qureshi et al., MICRO 2009), bank granularity.

Start-Gap keeps one spare ("gap") line per region and two registers:

* ``gap``   - index of the line currently left empty;
* ``start`` - rotation offset applied to every logical address.

Every ``psi`` writes the gap moves down by one position (the line above it is
copied into the gap).  When the gap has travelled through the whole region,
``start`` advances by one, so over time every logical line visits every
physical slot, spreading wear nearly uniformly (the original paper reports
~95% of ideal leveling at psi = 100).

The mapping below is the published one: for a region of N logical lines and
N + 1 physical slots,

    physical = (logical + start) mod N
    if physical >= gap: physical += 1        # skip over the gap slot
"""

from __future__ import annotations

from typing import Optional, Set

from repro import params
from repro.sim.sanitize import check, resolve

#: Bijectivity verification cap: regions larger than this are spot-checked
#: on an evenly-strided sample instead of exhaustively, keeping the
#: sanitizer's per-gap-move cost bounded.
_BIJECTIVITY_SAMPLE_LIMIT = 4096


class StartGap:
    """Start-Gap remapper for one memory bank.

    Args:
        num_lines: number of *logical* lines in the region (the bank exposes
            this many addresses; one extra physical slot holds the gap).
        psi: number of writes between gap movements (100 in the paper).
        sanitize: arm the remap-bijectivity invariant check after every gap
            move (``None`` defers to ``REPRO_SANITIZE``).
    """

    def __init__(self, num_lines: int, psi: int = params.START_GAP_PSI,
                 sanitize: Optional[bool] = None) -> None:
        if num_lines < 1:
            raise ValueError("num_lines must be >= 1")
        if psi < 1:
            raise ValueError("psi must be >= 1")
        self.num_lines = num_lines
        self.num_slots = num_lines + 1
        self.psi = psi
        self.gap = num_lines            # gap starts at the last physical slot
        self.start = 0
        self._writes_since_move = 0
        self.total_writes = 0
        self.gap_moves = 0
        self._sanitize = resolve(sanitize)

    def remap(self, logical: int) -> int:
        """Translate a logical line index to its current physical slot."""
        if not 0 <= logical < self.num_lines:
            raise IndexError(f"logical index {logical} out of range")
        physical = (logical + self.start) % self.num_lines
        if physical >= self.gap:
            physical += 1
        return physical

    def record_write(self) -> None:
        """Account one write to the region; moves the gap every psi writes."""
        self.total_writes += 1
        self._writes_since_move += 1
        if self._writes_since_move >= self.psi:
            self._writes_since_move = 0
            self._move_gap()

    def _move_gap(self) -> None:
        self.gap_moves += 1
        if self.gap == 0:
            self.gap = self.num_lines
            self.start = (self.start + 1) % self.num_lines
        else:
            self.gap -= 1
        if self._sanitize:
            self._check_bijectivity()

    def _check_bijectivity(self) -> None:
        """Verify the remap stays an injection into the physical slots.

        The gap slot must stay unoccupied and the register state in range;
        regions beyond :data:`_BIJECTIVITY_SAMPLE_LIMIT` lines are checked
        on an evenly-strided sample (the mapping is affine-with-skip, so a
        register corruption shows up on any sample).
        """
        check(
            0 <= self.gap < self.num_slots, "startgap-bijectivity",
            "gap register out of the physical slot range",
            gap=self.gap, num_slots=self.num_slots,
        )
        check(
            0 <= self.start < self.num_lines, "startgap-bijectivity",
            "start register out of the logical line range",
            start=self.start, num_lines=self.num_lines,
        )
        stride = max(1, self.num_lines // _BIJECTIVITY_SAMPLE_LIMIT)
        seen: Set[int] = set()
        for logical in range(0, self.num_lines, stride):
            physical = self.remap(logical)
            check(
                0 <= physical < self.num_slots, "startgap-bijectivity",
                "remap produced an out-of-range physical slot",
                logical=logical, physical=physical, num_slots=self.num_slots,
            )
            check(
                physical != self.gap, "startgap-bijectivity",
                "remap mapped a logical line onto the gap slot",
                logical=logical, physical=physical, gap=self.gap,
            )
            check(
                physical not in seen, "startgap-bijectivity",
                "remap mapped two logical lines onto one physical slot",
                logical=logical, physical=physical,
            )
            seen.add(physical)

    @property
    def extra_write_overhead(self) -> float:
        """Fraction of additional writes caused by gap movement (~1/psi)."""
        if self.total_writes == 0:
            return 0.0
        return self.gap_moves / self.total_writes
