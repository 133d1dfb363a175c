"""ReRAM cell parameters (Table V).

Five design points, CellA..CellE, spanning normal set/reset energies of
0.1-1.6 pJ per cell at 22 nm.  A 3x slow write runs at 0.767x the dissipated
power of a normal write (exponential dependence of ionic velocity on
temperature), so it costs 3 * 0.767 = 2.3x the energy per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro import params


@dataclass(frozen=True)
class CellParameters:
    """Per-cell electrical parameters for one design point."""

    name: str
    set_energy_pj: float                 # normal set == reset energy
    read_voltage_v: float = params.READ_VOLTAGE_V
    write_voltage_normal_v: float = params.WRITE_VOLTAGE_NORMAL_V
    write_voltage_slow_v: float = params.WRITE_VOLTAGE_SLOW_V
    slow_energy_ratio: float = params.SLOW_CELL_ENERGY_RATIO

    def __post_init__(self) -> None:
        if self.set_energy_pj <= 0:
            raise ValueError("set_energy_pj must be positive")
        if self.slow_energy_ratio <= 0:
            raise ValueError("slow_energy_ratio must be positive")

    def cell_write_energy_pj(self, slow: bool) -> float:
        """Energy to program one cell at the chosen speed."""
        if slow:
            return self.set_energy_pj * self.slow_energy_ratio
        return self.set_energy_pj

    def cell_write_energy_for(self, factor: float) -> float:
        """Energy to program one cell at an arbitrary slowdown factor.

        Power falls sub-linearly as the pulse lengthens (exponential ionic
        drift), so energy grows as factor ** alpha with alpha calibrated to
        the paper's single published point: a 3x pulse costs 2.3x energy,
        giving alpha = ln(2.3)/ln(3) ~= 0.758.
        """
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1.0")
        alpha = math.log(self.slow_energy_ratio) / math.log(3.0)
        return self.set_energy_pj * factor ** alpha


CELLS: Dict[str, CellParameters] = {
    name: CellParameters(name=name, set_energy_pj=energy)
    for name, energy in params.CELL_ENERGIES_PJ.items()
}


def get_cell(name: str) -> CellParameters:
    try:
        return CELLS[name]
    except KeyError:
        known = ", ".join(CELLS)
        raise KeyError(f"unknown cell {name!r} (known: {known})") from None
