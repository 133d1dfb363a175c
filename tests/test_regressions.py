"""Regression tests for bugs found during bring-up (see DESIGN.md §7).

Each test pins the exact scenario that once broke, so refactors cannot
silently reintroduce the failure mode.
"""

import pytest

from repro.core.policies import parse_policy
from repro.endurance.startgap import StartGap
from repro.endurance.wear import WearTracker
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.sim.events import EventQueue

AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)


def make_controller(policy="Slow+SC", **kwargs):
    events = EventQueue()
    ctrl = MemoryController(
        events=events, policy=parse_policy(policy), address_map=AMAP,
        wear=WearTracker(AMAP.num_banks, AMAP.blocks_per_bank), **kwargs,
    )
    return events, ctrl


def block_for_bank(bank, index=0):
    return AMAP.encode(bank, index)


def test_same_instant_issue_does_not_lose_completions():
    """Bug 1: at an operation's exact finish time, another event could run
    before the completion event, see busy_until == now, and overwrite the
    in-flight operation - silently dropping the old completion callback.
    The CPU then waited forever on a read that 'never returned'.

    Reproduction: a request submitted at exactly a prior read's completion
    instant.  Both callbacks must fire.
    """
    events, ctrl = make_controller("Norm")
    done = []
    ctrl.submit_read(block_for_bank(0, 0), lambda t: done.append("first"))
    # Schedule a submission at exactly the completion time (142.5 ns),
    # ordered BEFORE the completion event (FIFO tie-break by insertion
    # is not available for later inserts, so force via an event at 142.5
    # that was scheduled... the submission path itself runs through an
    # event placed after; instead drive the race directly:
    events.schedule(142.5, lambda _: ctrl.submit_read(
        block_for_bank(0, 16), lambda t: done.append("second"),
    ))
    events.run_all()
    assert done == ["first", "second"]


def test_cancelled_write_bank_rearms():
    """Bug 2: after a cancellation, the stale completion event returned
    without re-arming the bank, deadlocking it with queued work."""
    events, ctrl = make_controller("Slow+SC")
    done = []
    ctrl.submit_write(block_for_bank(0, 32), lambda t: done.append("w1"))
    events.run_until(100)                        # write pulse in flight
    ctrl.submit_read(block_for_bank(0, 0), lambda t: done.append("r"))
    # Queue a second write that can only issue if the bank re-arms.
    ctrl.submit_write(block_for_bank(0, 64), lambda t: done.append("w2"))
    events.run_all()
    assert set(done) == {"w1", "r", "w2"}
    assert ctrl.stats.cancellations == 1


def test_start_gap_never_maps_to_gap_slot_after_wrap():
    """Bug 3: the remap used mod (N+1) instead of mod N, so after the gap
    wrapped to slot 0 a logical line could map onto the gap itself and
    two lines could collide."""
    sg = StartGap(num_lines=16, psi=1)
    for _ in range(17):                 # drive the gap through a full wrap
        sg.record_write()
    mapped = [sg.remap(i) for i in range(16)]
    assert sg.gap not in mapped
    assert len(set(mapped)) == 16


def test_drain_blocks_reads_globally():
    """Bug 4: per-bank-only drain priority made global slow writes nearly
    free; the paper's drains stall reads system-wide."""
    events, ctrl = make_controller(
        "Norm", drain_low=1, drain_high=2, write_queue_entries=4,
    )
    order = []
    # Bank 0 busy; two writes for bank 0 trigger drain mode.
    ctrl.submit_read(block_for_bank(0, 0), lambda t: order.append("r0"))
    ctrl.submit_write(block_for_bank(0, 32))
    ctrl.submit_write(block_for_bank(0, 64))
    assert ctrl.drain_mode
    # A read for a *different*, idle bank must still wait out the drain.
    ctrl.submit_read(block_for_bank(1, 0), lambda t: order.append("r1"))
    events.run_until(200)     # drain still in progress (write until ~312)
    assert "r1" not in order


def test_quota_gate_survives_warmup_reset():
    """Bug 5: resetting Wear Quota statistics at warmup end cleared the
    slow-only gates, giving every measurement window one ungated burst."""
    from repro.core.wear_quota import WearQuota
    quota = WearQuota(num_banks=2, blocks_per_bank=100)
    quota.record_wear(0, quota.wear_bound_bank * 50)
    quota.start_period()
    assert quota.is_slow_only(0)
    quota.reset_statistics()
    assert quota.is_slow_only(0)


def test_wear_fraction_zero_during_data_burst():
    """Cancelling during the 20 ns data burst (before the pulse starts)
    must not record negative or spurious wear."""
    events, ctrl = make_controller("Slow+SC")
    ctrl.submit_write(block_for_bank(0, 32))
    events.run_until(5)                          # still in the burst
    ctrl.submit_read(block_for_bank(0, 0))
    events.run_all()
    record = ctrl.wear.records[0]
    # Only the final successful write wore the cell.
    assert record.slow_writes_by_factor[3.0] == pytest.approx(1.0)
