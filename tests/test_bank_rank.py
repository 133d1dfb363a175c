"""Tests for the per-bank state and the rank tFAW limiter.

The bank bookkeeping (busy time, open row, in-flight operation,
cancellation) lives in the controller's flat per-bank lists, so these
tests drive :class:`MemoryController` and read bank 0's entries.
"""

import math
import random

import pytest

from repro.core.policies import parse_policy
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.memory.rank import RankFawLimiter
from repro.sim.events import EventQueue

AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)


def make_controller(policy):
    events = EventQueue()
    return events, MemoryController(events=events,
                                    policy=parse_policy(policy),
                                    address_map=AMAP)


class TestBank:
    def test_initially_idle_no_open_row(self):
        _, ctrl = make_controller("Norm")
        assert ctrl._bank_busy_until[0] == 0.0
        assert ctrl._bank_open_row[0] is None
        assert ctrl._bank_in_flight[0] is None

    def test_begin_makes_busy_until_finish(self):
        events, ctrl = make_controller("Slow+SC")
        ctrl.submit_write(AMAP.encode(0, 32))
        assert ctrl._bank_in_flight[0] is not None
        # 20 ns burst + 450 ns slow pulse.
        assert ctrl._bank_busy_until[0] == pytest.approx(470)
        assert math.isclose(ctrl.bank_busy_ns[0], 470)
        assert ctrl.bank_ops_begun[0] == 1

    def test_row_hit_tracking(self):
        events, ctrl = make_controller("Norm")
        ctrl.submit_read(AMAP.encode(0, 0))
        events.run_all()
        first_row = ctrl._bank_open_row[0]
        assert first_row is not None
        ctrl.submit_read(AMAP.encode(0, 1))     # same row
        events.run_all()
        assert ctrl.stats.read_row_hits == 1
        ctrl.submit_read(AMAP.encode(0, 16))    # next row
        events.run_all()
        assert ctrl.stats.read_row_misses == 2
        assert ctrl._bank_open_row[0] != first_row

    def test_cancel_frees_bank_and_trims_busy_time(self):
        events, ctrl = make_controller("Slow+SC")
        ctrl.submit_write(AMAP.encode(0, 32))   # busy until 470 ns
        events.run_until(100)
        ctrl.submit_read(AMAP.encode(0, 0))     # cancels the write
        assert ctrl.stats.cancellations == 1
        assert ctrl.bank_ops_cancelled[0] == 1
        assert ctrl._bank_in_flight[0] is None
        assert math.isclose(ctrl.bank_busy_ns[0], 100)
        assert ctrl._bank_busy_until[0] == pytest.approx(
            100 + ctrl.timing.cancel_penalty_ns)

    def test_complete_clears_in_flight(self):
        events, ctrl = make_controller("Norm")
        ctrl.submit_write(AMAP.encode(0, 32))
        events.run_all()
        assert ctrl._bank_in_flight[0] is None
        assert ctrl.stats.writes_completed == 1


class TestRankFawLimiter:
    def test_allows_up_to_four_activates(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 1, 2, 3):
            assert limiter.activate(t) == t

    def test_fifth_activate_delayed_to_window_edge(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 10, 20, 30):
            assert limiter.activate(t) == t
        # Oldest activate (t=0) leaves the window at t=50.
        assert limiter.activate(35) == 50
        # The delayed one counts from its own start: the next waits for
        # t=10 to leave the window.
        assert limiter.activate(50) == 60

    def test_window_slides(self):
        limiter = RankFawLimiter(t_faw_ns=50, max_activates=4)
        for t in (0, 10, 20, 30):
            limiter.activate(t)
        assert limiter.activate(60) == 60

    def test_rounded_exit_leaves_the_window(self):
        """The delayed start is computed in floating point: 0.1 + 0.7
        rounds to 0.7999999999999999, minus 0.7 to below 0.1.  The
        oldest activation still leaves the window at its own exit time,
        so the start is 0.1 + 0.7 and the window holds one activation."""
        limiter = RankFawLimiter(t_faw_ns=0.7, max_activates=1)
        limiter.activate(0.1)
        assert limiter.activate(0.2) == 0.1 + 0.7
        assert list(limiter._recent) == [0.1 + 0.7]

    def test_random_activation_times_keep_the_window(self):
        """100,000 random activation times through the default 50 ns
        window: none is refused, none starts before it is asked to, and
        no start comes before the one ``max_activates`` back plus tFAW
        (the sum the limiter itself computes)."""
        rng = random.Random(20160618)
        times = sorted(rng.uniform(0.0, 1e6) for _ in range(100_000))
        limiter = RankFawLimiter()
        window = limiter.max_activates
        starts = [limiter.activate(t) for t in times]
        assert all(start >= t for start, t in zip(starts, times))
        assert all(later >= earlier for earlier, later
                   in zip(starts, starts[1:]))
        assert all(starts[i] >= starts[i - window] + limiter.t_faw_ns
                   for i in range(window, len(starts)))
        assert len(limiter._recent) <= window

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RankFawLimiter(t_faw_ns=0)
        with pytest.raises(ValueError):
            RankFawLimiter(max_activates=0)
