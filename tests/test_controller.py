"""Behavioral tests for the memory controller.

These drive the controller directly through its submission API with a
hand-built event queue, checking scheduling priorities, drain behaviour,
write-speed decisions, cancellation and wear accounting.
"""

import math

import pytest

from repro.core.policies import parse_policy
from repro.core.wear_quota import WearQuota
from repro.endurance.wear import WearTracker
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.sim.events import EventQueue


AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)


def make_controller(policy="Norm", quota=None, **kwargs):
    events = EventQueue()
    pol = parse_policy(policy)
    wear = WearTracker(AMAP.num_banks, AMAP.blocks_per_bank)
    ctrl = MemoryController(
        events=events, policy=pol, address_map=AMAP,
        wear=wear, quota=quota, **kwargs,
    )
    return events, ctrl


def block_for_bank(bank, index=0):
    """A global block landing in the given bank."""
    return AMAP.encode(bank, index)


class TestReadPath:
    def test_read_completes_with_callback(self):
        events, ctrl = make_controller()
        done = []
        ctrl.submit_read(block_for_bank(0), done.append)
        events.run_all()
        assert len(done) == 1
        # Row miss: tRCD + tCAS + burst = 142.5 ns.
        assert done[0] == pytest.approx(142.5)

    def test_row_buffer_hit_is_fast(self):
        events, ctrl = make_controller()
        done = []
        ctrl.submit_read(block_for_bank(0, 0), done.append)
        events.run_all()
        ctrl.submit_read(block_for_bank(0, 1), done.append)  # same row
        events.run_all()
        assert done[1] - done[0] == pytest.approx(22.5)      # tCAS + burst

    def test_row_miss_after_row_change(self):
        events, ctrl = make_controller()
        done = []
        ctrl.submit_read(block_for_bank(0, 0), done.append)
        events.run_all()
        ctrl.submit_read(block_for_bank(0, 16), done.append)  # next row
        events.run_all()
        assert done[1] - done[0] == pytest.approx(142.5)

    def test_reads_to_different_banks_overlap(self):
        events, ctrl = make_controller()
        done = []
        ctrl.submit_read(block_for_bank(0), done.append)
        ctrl.submit_read(block_for_bank(1), done.append)
        events.run_all()
        # Bank-parallel activation; bus serialises the two 20 ns bursts.
        assert done[1] - done[0] == pytest.approx(20.0)

    def test_reads_same_bank_serialise(self):
        events, ctrl = make_controller()
        done = []
        ctrl.submit_read(block_for_bank(0, 0), done.append)
        ctrl.submit_read(block_for_bank(0, 16), done.append)
        events.run_all()
        assert done[1] - done[0] == pytest.approx(142.5)


class TestWritePriorities:
    def test_read_has_priority_over_write(self):
        events, ctrl = make_controller()
        order = []
        # While the bank is busy with a first read, queue a write and a read.
        ctrl.submit_read(block_for_bank(0, 0), lambda t: order.append("r1"))
        ctrl.submit_write(block_for_bank(0, 32), lambda t: order.append("w"))
        ctrl.submit_read(block_for_bank(0, 16), lambda t: order.append("r2"))
        events.run_all()
        assert order == ["r1", "r2", "w"]

    def test_write_issues_when_no_read_for_bank(self):
        events, ctrl = make_controller()
        order = []
        ctrl.submit_read(block_for_bank(1), lambda t: order.append("read"))
        ctrl.submit_write(block_for_bank(0), lambda t: order.append("write"))
        events.run_all()
        assert "write" in order

    def test_eager_blocked_by_same_bank_write(self):
        events, ctrl = make_controller("BE-Mellow+SC")
        order = []
        # Occupy bank 0 with a long op, then queue write + eager behind it.
        ctrl.submit_read(block_for_bank(0, 0), lambda t: order.append("r"))
        ctrl.submit_eager(block_for_bank(0, 48), lambda t: order.append("e"))
        ctrl.submit_write(block_for_bank(0, 32), lambda t: order.append("w"))
        events.run_all()
        assert order == ["r", "w", "e"]

    def test_eager_issues_on_idle_bank(self):
        events, ctrl = make_controller("BE-Mellow+SC")
        done = []
        ctrl.submit_eager(block_for_bank(2), done.append)
        events.run_all()
        assert len(done) == 1
        # Eager writes are always slow: burst + 450 ns pulse.
        assert done[0] == pytest.approx(470.0)


class TestWriteSpeedDecision:
    def test_bank_aware_single_write_is_slow(self):
        events, ctrl = make_controller("B-Mellow+SC")
        ctrl.submit_write(block_for_bank(0))
        events.run_all()
        assert ctrl.stats.writes_issued_slow == 1
        assert ctrl.stats.writes_issued_normal == 0

    def test_bank_aware_two_writes_first_normal(self):
        events, ctrl = make_controller("B-Mellow+SC")
        # Keep the bank busy so both writes are queued together (Figure 5).
        ctrl.submit_read(block_for_bank(0, 0))
        ctrl.submit_write(block_for_bank(0, 32))
        ctrl.submit_write(block_for_bank(0, 64))
        events.run_all()
        # First write sees a second one queued -> normal; the second then
        # is alone -> slow.
        assert ctrl.stats.writes_issued_normal == 1
        assert ctrl.stats.writes_issued_slow == 1

    def test_norm_policy_all_normal(self):
        events, ctrl = make_controller("Norm")
        for i in range(4):
            ctrl.submit_write(block_for_bank(0, 32 * i))
        events.run_all()
        assert ctrl.stats.writes_issued_normal == 4
        assert ctrl.stats.writes_issued_slow == 0

    def test_slow_policy_all_slow(self):
        events, ctrl = make_controller("Slow")
        for i in range(4):
            ctrl.submit_write(block_for_bank(0, 32 * i))
        events.run_all()
        assert ctrl.stats.writes_issued_slow == 4

    def test_wear_quota_forces_slow(self):
        quota = WearQuota(AMAP.num_banks, AMAP.blocks_per_bank)
        events, ctrl = make_controller("Norm+WQ", quota=quota)
        quota.record_wear(0, quota.wear_bound_bank * 100)
        quota.start_period()
        ctrl.submit_write(block_for_bank(0, 0))
        ctrl.submit_write(block_for_bank(0, 32))
        events.run_all()
        assert ctrl.stats.writes_issued_slow == 2

    def test_wear_quota_gate_is_per_bank(self):
        quota = WearQuota(AMAP.num_banks, AMAP.blocks_per_bank)
        events, ctrl = make_controller("Norm+WQ", quota=quota)
        quota.record_wear(0, quota.wear_bound_bank * 100)
        quota.start_period()
        ctrl.submit_write(block_for_bank(1))
        events.run_all()
        assert ctrl.stats.writes_issued_normal == 1


class TestWriteDrain:
    def test_drain_enters_at_high_threshold(self):
        events, ctrl = make_controller(
            "Norm", drain_low=2, drain_high=4, write_queue_entries=4,
        )
        # Saturate bank 0 with a long op so writes pile up.
        ctrl.submit_read(block_for_bank(0, 0))
        for i in range(4):
            ctrl.submit_write(block_for_bank(0, 32 * (i + 1)))
        assert ctrl.drain_mode
        assert ctrl.stats.drain_events == 1
        events.run_all()
        assert not ctrl.drain_mode

    def test_drain_prioritises_writes_over_reads(self):
        events, ctrl = make_controller(
            "Norm", drain_low=1, drain_high=2, write_queue_entries=2,
        )
        order = []
        ctrl.submit_read(block_for_bank(0, 0), lambda t: order.append("r1"))
        ctrl.submit_write(block_for_bank(0, 32), lambda t: order.append("w1"))
        ctrl.submit_write(block_for_bank(0, 64), lambda t: order.append("w2"))
        assert ctrl.drain_mode
        ctrl.submit_read(block_for_bank(0, 16), lambda t: order.append("r2"))
        events.run_all()
        # During drain the queued writes beat the second read.
        assert order.index("w1") < order.index("r2")

    def test_drain_time_recorded(self):
        events, ctrl = make_controller(
            "Norm", drain_low=1, drain_high=2, write_queue_entries=2,
        )
        ctrl.submit_read(block_for_bank(0, 0))
        ctrl.submit_write(block_for_bank(0, 32))
        ctrl.submit_write(block_for_bank(0, 64))
        events.run_all()
        assert ctrl.stats.drain_time_ns > 0

    def test_eager_never_triggers_drain(self):
        events, ctrl = make_controller("BE-Mellow+SC")
        ctrl.submit_read(block_for_bank(0, 0))
        for i in range(16):
            assert ctrl.submit_eager(block_for_bank(0, 32 * (i + 1)))
        assert not ctrl.drain_mode
        assert not ctrl.submit_eager(block_for_bank(0, 600))  # queue full


class TestWriteCancellation:
    def test_read_cancels_cancellable_write(self):
        events, ctrl = make_controller("Slow+SC")
        done = []
        ctrl.submit_write(block_for_bank(0, 32), lambda t: done.append(("w", t)))
        events.run_until(100)          # write in flight (470 ns total)
        ctrl.submit_read(block_for_bank(0, 0), lambda t: done.append(("r", t)))
        events.run_all()
        assert ctrl.stats.cancellations == 1
        kinds = [k for k, _ in done]
        assert kinds == ["r", "w"]     # read overtakes, write re-issues

    def test_non_cancellable_write_blocks_read(self):
        events, ctrl = make_controller("Slow")   # no +SC
        done = []
        ctrl.submit_write(block_for_bank(0, 32), lambda t: done.append(("w", t)))
        events.run_until(100)
        ctrl.submit_read(block_for_bank(0, 0), lambda t: done.append(("r", t)))
        events.run_all()
        assert ctrl.stats.cancellations == 0
        assert [k for k, _ in done] == ["w", "r"]

    def test_nc_policy_cancels_normal_writes(self):
        events, ctrl = make_controller("E-Norm+NC")
        ctrl.submit_write(block_for_bank(0, 32))
        events.run_until(50)           # inside the 170 ns normal write
        ctrl.submit_read(block_for_bank(0, 0))
        events.run_all()
        assert ctrl.stats.cancellations == 1

    def test_cancelled_attempt_records_partial_wear(self):
        events, ctrl = make_controller("Slow+SC")
        ctrl.submit_write(block_for_bank(0, 32))
        events.run_until(155)          # 20 ns burst + 30% of the 450 ns pulse
        ctrl.submit_read(block_for_bank(0, 0))
        events.run_all()
        # Total wear: one cancelled 0.3-pulse + one full slow write.
        record = ctrl.wear.records[0]
        assert record.slow_writes_by_factor[3.0] == pytest.approx(1.3)

    def test_no_cancellation_past_progress_threshold(self):
        """Threshold-based cancellation: a write more than half done is
        allowed to finish (Qureshi et al., HPCA 2010)."""
        events, ctrl = make_controller("Slow+SC")
        done = []
        ctrl.submit_write(block_for_bank(0, 32), lambda t: done.append(("w", t)))
        events.run_until(300)          # 62% through the 450 ns pulse
        ctrl.submit_read(block_for_bank(0, 0), lambda t: done.append(("r", t)))
        events.run_all()
        assert ctrl.stats.cancellations == 0
        assert [k for k, _ in done] == ["w", "r"]

    def test_cancellation_during_burst_no_wear(self):
        events, ctrl = make_controller("Slow+SC")
        ctrl.submit_write(block_for_bank(0, 32))
        events.run_until(10)           # still in the 20 ns data burst
        ctrl.submit_read(block_for_bank(0, 0))
        events.run_all()
        record = ctrl.wear.records[0]
        assert record.slow_writes_by_factor[3.0] == pytest.approx(1.0)

    def test_no_cancellation_during_drain(self):
        events, ctrl = make_controller(
            "Slow+SC", drain_low=1, drain_high=2, write_queue_entries=4,
        )
        # Busy the bank with a read so three writes pile up -> drain mode.
        ctrl.submit_read(block_for_bank(0, 0))
        for i in range(3):
            ctrl.submit_write(block_for_bank(0, 32 * (i + 1)))
        assert ctrl.drain_mode
        # The read finishes at 142.5 ns, the first drain write then runs
        # until ~612 ns with two writes still queued (> drain_low).
        events.run_until(300)
        assert ctrl.drain_mode
        ctrl.submit_read(block_for_bank(0, 16))
        assert ctrl.stats.cancellations == 0


class TestWearAccounting:
    def test_normal_write_wear(self):
        events, ctrl = make_controller("Norm")
        ctrl.submit_write(block_for_bank(2))
        events.run_all()
        assert ctrl.wear.records[2].normal_writes == 1

    def test_slow_write_wear(self):
        events, ctrl = make_controller("Slow")
        ctrl.submit_write(block_for_bank(2))
        events.run_all()
        assert ctrl.wear.records[2].slow_writes_by_factor[3.0] == 1

    def test_quota_sees_wear(self):
        quota = WearQuota(AMAP.num_banks, AMAP.blocks_per_bank)
        events, ctrl = make_controller("Norm+WQ", quota=quota)
        ctrl.submit_write(block_for_bank(1))
        events.run_all()
        assert quota.cumulative_wear[1] == pytest.approx(1.0)


class TestBackpressure:
    def test_submit_write_false_when_full(self):
        events, ctrl = make_controller("Norm", write_queue_entries=2,
                                       drain_low=1, drain_high=2)
        ctrl.submit_read(block_for_bank(0, 0))   # keep the bank busy
        assert ctrl.submit_write(block_for_bank(0, 32))
        assert ctrl.submit_write(block_for_bank(0, 64))
        assert not ctrl.submit_write(block_for_bank(0, 96))

    def test_write_space_waiter_fires(self):
        events, ctrl = make_controller("Norm", write_queue_entries=2,
                                       drain_low=1, drain_high=2)
        ctrl.submit_read(block_for_bank(0, 0))
        ctrl.submit_write(block_for_bank(0, 32))
        ctrl.submit_write(block_for_bank(0, 64))
        fired = []
        ctrl.wait_for_write_space(lambda: fired.append(events.now))
        assert not fired
        events.run_all()
        assert fired

    def test_waiter_fires_immediately_when_space(self):
        events, ctrl = make_controller("Norm")
        fired = []
        ctrl.wait_for_write_space(lambda: fired.append(True))
        assert fired


class TestUtilization:
    def test_busy_fraction(self):
        events, ctrl = make_controller("Norm")
        ctrl.submit_read(block_for_bank(0))
        events.run_all()
        # One bank busy 142.5 ns of a 142.5 ns window, 4 banks total.
        busy_fraction = sum(ctrl.bank_busy_ns) / (142.5 * 4)
        assert math.isclose(busy_fraction, 0.25)

    def test_policy_requires_quota(self):
        with pytest.raises(ValueError):
            make_controller("Norm+WQ")


class TestPagePolicy:
    def test_open_page_keeps_row(self):
        events, ctrl = make_controller("Norm")
        done = []
        ctrl.submit_read(block_for_bank(0, 0), done.append)
        events.run_all()
        ctrl.submit_read(block_for_bank(0, 1), done.append)
        events.run_all()
        assert done[1] - done[0] == pytest.approx(22.5)   # row hit


class TestReadScheduler:
    def test_fcfs_serves_in_arrival_order(self):
        events, ctrl = make_controller("Norm")
        order = []
        ctrl.submit_read(block_for_bank(0, 0), lambda t: order.append("warm"))
        # Queue a row-miss (row 2) then a row-hit (row 0) behind it.
        ctrl.submit_read(block_for_bank(0, 32), lambda t: order.append("miss"))
        ctrl.submit_read(block_for_bank(0, 1), lambda t: order.append("hit"))
        events.run_all()
        assert order == ["warm", "miss", "hit"]
