"""Tests for the per-bank state and the rank tFAW limiter.

The bank bookkeeping (busy time, open row, in-flight operation,
cancellation) is done by the controller on its flat arrays, so these
tests drive :class:`MemoryController` and read the :class:`Bank` objects
at a sync point.
"""

import math

import pytest

from repro.core.policies import parse_policy
from repro.memory.address import AddressMap
from repro.memory.bank import Bank
from repro.memory.controller import MemoryController
from repro.memory.rank import RankFawLimiter
from repro.sim.events import EventQueue

AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)


def make_controller(policy):
    events = EventQueue()
    return events, MemoryController(events=events,
                                    policy=parse_policy(policy),
                                    address_map=AMAP)


def bank0(ctrl):
    """Bank 0 with the controller's flat state written back."""
    ctrl.sync_bank_state()
    return ctrl.banks[0]


class TestBank:
    def test_initially_idle_no_open_row(self):
        bank = Bank(0)
        assert bank.busy_until == 0.0
        assert bank.open_row is None
        assert bank.in_flight is None

    def test_begin_makes_busy_until_finish(self):
        events, ctrl = make_controller("Slow+SC")
        ctrl.submit_write(AMAP.encode(0, 32))
        bank = bank0(ctrl)
        assert bank.in_flight is not None
        # 20 ns burst + 450 ns slow pulse.
        assert bank.busy_until == pytest.approx(470)
        assert math.isclose(bank.busy_time_ns, 470)
        assert bank.ops_begun == 1

    def test_row_hit_tracking(self):
        events, ctrl = make_controller("Norm")
        ctrl.submit_read(AMAP.encode(0, 0))
        events.run_all()
        first_row = bank0(ctrl).open_row
        assert first_row is not None
        ctrl.submit_read(AMAP.encode(0, 1))     # same row
        events.run_all()
        assert ctrl.stats.read_row_hits == 1
        ctrl.submit_read(AMAP.encode(0, 16))    # next row
        events.run_all()
        assert ctrl.stats.read_row_misses == 2
        assert bank0(ctrl).open_row != first_row

    def test_cancel_frees_bank_and_trims_busy_time(self):
        events, ctrl = make_controller("Slow+SC")
        ctrl.submit_write(AMAP.encode(0, 32))   # busy until 470 ns
        events.run_until(100)
        ctrl.submit_read(AMAP.encode(0, 0))     # cancels the write
        bank = bank0(ctrl)
        assert ctrl.stats.cancellations == 1
        assert bank.ops_cancelled == 1
        assert bank.in_flight is None
        assert math.isclose(bank.busy_time_ns, 100)
        assert bank.busy_until == pytest.approx(
            100 + ctrl.timing.cancel_penalty_ns)

    def test_complete_clears_in_flight(self):
        events, ctrl = make_controller("Norm")
        ctrl.submit_write(AMAP.encode(0, 32))
        events.run_all()
        bank = bank0(ctrl)
        assert bank.in_flight is None
        assert ctrl.stats.writes_completed == 1


class TestRankFawLimiter:
    def test_allows_up_to_four_activates(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 1, 2, 3):
            assert limiter.earliest_activate(t) == t
            limiter.record_activate(t)

    def test_fifth_activate_delayed_to_window_edge(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 10, 20, 30):
            limiter.record_activate(t)
        # Oldest activate (t=0) leaves the window at t=50.
        assert limiter.earliest_activate(35) == 50

    def test_window_slides(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 10, 20, 30):
            limiter.record_activate(t)
        assert limiter.earliest_activate(60) == 60

    def test_violation_raises(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=2)
        limiter.record_activate(0)
        limiter.record_activate(1)
        with pytest.raises(RuntimeError):
            limiter.record_activate(2)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RankFawLimiter(t_faw_ns=0)
        with pytest.raises(ValueError):
            RankFawLimiter(max_activates=0)
