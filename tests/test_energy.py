"""Tests for the energy models (Tables V and VI, Figure 16 accounting)."""

from dataclasses import replace

import pytest

from repro import SimConfig, params, run_simulation
from repro.energy.cells import CELLS, get_cell
from repro.energy.nvsim import LineEnergyModel, table_vi_rows
from repro.sim.sanitize import InvariantViolation
from repro.sim.system import System


class TestCells:
    def test_table_v_cell_energies(self):
        assert get_cell("CellA").set_energy_pj == 0.1
        assert get_cell("CellC").set_energy_pj == 0.4
        assert get_cell("CellE").set_energy_pj == 1.6

    def test_slow_write_cell_energy_is_2_3x(self):
        cell = get_cell("CellC")
        assert cell.cell_write_energy_pj(slow=True) == pytest.approx(0.92)
        assert cell.cell_write_energy_pj(slow=False) == pytest.approx(0.4)

    def test_slow_power_is_lower_despite_higher_energy(self):
        """3x pulse at 0.767x power => 2.3x energy (the paper's assumption)."""
        assert params.SLOW_POWER_RATIO * 3.0 == pytest.approx(
            params.SLOW_CELL_ENERGY_RATIO, rel=0.01
        )

    def test_unknown_cell(self):
        with pytest.raises(KeyError):
            get_cell("CellZ")

    def test_five_cells(self):
        assert len(CELLS) == 5


# Table VI published rows: (cell, norm write, slow write, ratio).
TABLE_VI = [
    ("CellA", 248.8, 314.5, 1.26),
    ("CellB", 300.0, 432.3, 1.44),
    ("CellC", 402.4, 667.8, 1.66),
    ("CellD", 607.2, 1138.8, 1.88),
    ("CellE", 1016.8, 2080.9, 2.05),
]


class TestTableVI:
    @pytest.mark.parametrize("cell,norm,slow,ratio", TABLE_VI)
    def test_write_energies_match_paper(self, cell, norm, slow, ratio):
        model = LineEnergyModel.for_cell(cell)
        assert model.write_energy_pj(False) == pytest.approx(norm, rel=0.01)
        assert model.write_energy_pj(True) == pytest.approx(slow, rel=0.01)

    @pytest.mark.parametrize("cell,norm,slow,ratio", TABLE_VI)
    def test_slow_norm_ratio_matches_paper(self, cell, norm, slow, ratio):
        model = LineEnergyModel.for_cell(cell)
        assert model.slow_norm_ratio == pytest.approx(ratio, abs=0.01)

    def test_buffer_read_energy(self):
        model = LineEnergyModel.for_cell("CellC")
        assert model.read_energy_pj(row_hit=False) == 1503.0
        assert model.read_energy_pj(row_hit=True) == 100.0

    def test_ratio_shrinks_with_cell_energy(self):
        """Peripheral energy dominates small cells: CellA ratio < CellE."""
        ratios = [LineEnergyModel.for_cell(c).slow_norm_ratio
                  for c in ("CellA", "CellB", "CellC", "CellD", "CellE")]
        assert ratios == sorted(ratios)

    def test_table_vi_rows_complete(self):
        rows = table_vi_rows()
        assert [r["cell"] for r in rows] == list(params.CELL_ENERGIES_PJ)
        assert all(r["buffer_read_pj"] == 1503.0 for r in rows)


def collect_window(config, before=(), during=(), reads=(0, 0)):
    """Collect a RunResult from hand-recorded wear, with no simulation.

    ``before`` writes land before the end of warm-up (and must be reset
    away), ``during`` writes and ``reads`` (row hits, row misses) land in
    a 1000 ns measurement window; each write is ``(bank, factor,
    fraction)``.
    """
    system = System(config)
    for bank, factor, fraction in before:
        system.wear.record_write(bank, factor, fraction=fraction)
    system._end_warmup()
    for bank, factor, fraction in during:
        system.wear.record_write(bank, factor, fraction=fraction)
    stats = system.controller.stats
    stats.read_row_hits, stats.read_row_misses = reads
    stats.reads_issued = sum(reads)
    system._measure_end_ns = system._measure_start_ns + 1000.0
    return system._collect()


SMALL = SimConfig(workload="lbm", policy="Slow+SC", warmup_accesses=6000,
                  measure_accesses=12000, llc_size_bytes=256 * 1024,
                  functional_warmup_max=40000)


@pytest.fixture(scope="module")
def small_run():
    return run_simulation(SMALL)


class TestEnergyAccount:
    """Figure 16's energy sum, as :meth:`System._collect` computes it."""

    def test_read_charging(self, small_run):
        assert small_run.read_row_hits > 0 and small_run.read_row_misses > 0
        assert small_run.read_energy_pj == pytest.approx(
            small_run.read_row_hits * 100.0
            + small_run.read_row_misses * 1503.0)

    def test_write_charging(self):
        result = collect_window(SMALL, during=[(0, 1.0, 1.0), (1, 3.0, 1.0)])
        assert result.write_energy_pj == pytest.approx(402.4 + 667.8,
                                                       rel=0.01)

    def test_fractional_cancelled_attempt(self, small_run):
        result = collect_window(SMALL, during=[(2, 3.0, 0.5)])
        assert result.write_energy_pj == pytest.approx(667.8 / 2, rel=0.01)
        # In a real run each cancelled pulse leaves a fractional count in
        # the wear records, and the write energy charges exactly them.
        counts = [count for record in small_run.wear_records
                  for count in record.slow_writes_by_factor.values()]
        assert small_run.cancellations > 0
        assert any(count != int(count) for count in counts)
        model = LineEnergyModel.for_cell()
        assert small_run.write_energy_pj == pytest.approx(sum(
            record.normal_writes * model.write_energy_pj(False)
            + sum(count * model.write_energy_pj_for(factor)
                  for factor, count in record.slow_writes_by_factor.items())
            for record in small_run.wear_records))

    def test_invalid_fraction(self):
        wear = System(replace(SMALL, sanitize=True)).wear
        with pytest.raises(InvariantViolation):
            wear.record_write(0, 1.0, fraction=-0.5)

    def test_total_and_reset(self):
        result = collect_window(SMALL, before=[(0, 3.0, 1.0)],
                                during=[(0, 1.0, 1.0)], reads=(1, 1))
        assert result.read_energy_pj == pytest.approx(100.0 + 1503.0)
        # The warm-up write was reset away with the records.
        assert result.write_energy_pj == pytest.approx(402.4, rel=0.01)
        assert result.total_energy_pj == pytest.approx(
            result.read_energy_pj + result.write_energy_pj)
