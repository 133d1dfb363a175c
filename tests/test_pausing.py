"""Tests for write pausing (+WP, Qureshi et al. HPCA 2010)."""

import pytest

from repro.core.policies import parse_policy
from repro.endurance.wear import WearTracker
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.sim.events import EventQueue

AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)


def make_controller(policy="Slow+SC+WP"):
    events = EventQueue()
    ctrl = MemoryController(
        events=events, policy=parse_policy(policy), address_map=AMAP,
        wear=WearTracker(AMAP.num_banks, AMAP.blocks_per_bank),
    )
    return events, ctrl


def block_for_bank(bank, index=0):
    return AMAP.encode(bank, index)


def test_wp_suffix_parses():
    policy = parse_policy("Slow+SC+WP")
    assert policy.pausing and policy.cancel_slow


def test_wp_requires_interruptible_writes():
    with pytest.raises(ValueError):
        parse_policy("Norm+WP")


def test_pause_preserves_progress_in_completion_time():
    """A paused slow write resumes with only the remaining pulse to pay.

    Timeline: the write's pulse starts at 20 ns; a read pauses it at
    170 ns (150 ns of the 450 ns pulse done).  The read occupies the bank
    for 142.5 ns plus the 2.5 ns abort penalty, after which the resumed
    write pays a 20 ns burst plus the remaining 300 ns - finishing far
    sooner than a from-scratch reissue would.
    """
    events, ctrl = make_controller("Slow+SC+WP")
    done = {}
    ctrl.submit_write(block_for_bank(0, 32), lambda t: done.setdefault("w", t))
    events.run_until(170)
    ctrl.submit_read(block_for_bank(0, 0), lambda t: done.setdefault("r", t))
    events.run_all()
    assert ctrl.stats.pauses == 1
    assert ctrl.stats.cancellations == 0
    restart_finish = done["r"] + 2.5 + 20 + 450   # what a full restart costs
    assert done["w"] < restart_finish - 100


def test_pause_total_wear_is_one_write():
    """Pausing splits one pulse across attempts: total wear == 1 write."""
    events, ctrl = make_controller("Slow+SC+WP")
    ctrl.submit_write(block_for_bank(0, 32))
    events.run_until(170)                       # pause 1/3 through the pulse
    ctrl.submit_read(block_for_bank(0, 0))
    events.run_all()
    record = ctrl.wear.records[0]
    assert record.slow_writes_by_factor[3.0] == pytest.approx(1.0)


def test_cancel_total_wear_exceeds_one_write():
    """Cancellation (no +WP) restarts: partial stress + a full pulse."""
    events, ctrl = make_controller("Slow+SC")
    ctrl.submit_write(block_for_bank(0, 32))
    events.run_until(170)
    ctrl.submit_read(block_for_bank(0, 0))
    events.run_all()
    record = ctrl.wear.records[0]
    assert record.slow_writes_by_factor[3.0] == pytest.approx(4.0 / 3.0)


def test_pause_allowed_past_cancel_threshold():
    """Pausing wastes nothing, so it may interrupt near-complete writes."""
    events, ctrl = make_controller("Slow+SC+WP")
    ctrl.submit_write(block_for_bank(0, 32))
    events.run_until(400)                      # 84% through the pulse
    ctrl.submit_read(block_for_bank(0, 0))
    events.run_all()
    assert ctrl.stats.pauses == 1


def test_multiple_pauses_accumulate_progress():
    events, ctrl = make_controller("Slow+SC+WP")
    ctrl.submit_write(block_for_bank(0, 32))
    events.run_until(120)                      # 100 ns of pulse done
    ctrl.submit_read(block_for_bank(0, 0))     # pause 1
    events.run_until(500)                      # resumed write in flight
    ctrl.submit_read(block_for_bank(0, 16))    # pause 2
    events.run_all()
    assert ctrl.stats.pauses == 2
    record = ctrl.wear.records[0]
    assert record.slow_writes_by_factor[3.0] == pytest.approx(1.0)


def test_end_to_end_pausing_beats_cancellation_wear():
    from repro import SimConfig, run_simulation
    fast = dict(workload="GemsFDTD", warmup_accesses=5000,
                measure_accesses=12000, llc_size_bytes=256 * 1024,
                functional_warmup_max=30000)
    cancel = run_simulation(SimConfig(policy="Slow+SC", **fast))
    pause = run_simulation(SimConfig(policy="Slow+SC+WP", **fast))
    # Same write workload, but pausing never re-pays pulse time.
    assert pause.lifetime_years >= cancel.lifetime_years


@pytest.mark.parametrize("policy", ["Slow+SC", "Slow+SC+WP"])
def test_stale_completion_of_a_reissued_write_is_ignored(policy):
    """A cancelled (or paused) write is re-issued as the same request and
    finishes after its first attempt would have.  The first attempt's
    completion event still fires at the old finish time; it carries that
    attempt's issue token, not the request, so it must find the bank
    busy with a newer issue and change nothing: the write completes, is
    called back and wears once, at the re-issue's finish."""
    events, ctrl = make_controller(policy)
    done = []
    ctrl.submit_write(block_for_bank(0, 32), done.append)
    first_finish = ctrl._bank_busy_until[0]        # 20 ns burst + 450 ns
    events.run_until(100)                          # 80 ns of the pulse
    ctrl.submit_read(block_for_bank(0, 0))         # cancels or pauses it
    request = ctrl.write_q.peek_bank(0)
    assert request is not None and ctrl._bank_in_flight[0] is None
    events.run_until(first_finish - 1.0)
    assert ctrl._bank_in_flight[0] is request      # re-issued by now
    reissue_finish = ctrl._bank_busy_until[0]
    assert reissue_finish > first_finish
    events.run_until(first_finish)                 # the stale completion
    assert ctrl._bank_in_flight[0] is request
    assert ctrl.stats.writes_completed == 0 and done == []
    events.run_all()
    assert done == [reissue_finish]
    assert ctrl.stats.writes_completed == 1
    expected = 1.0 if policy.endswith("+WP") else 1.0 + 80.0 / 450.0
    assert ctrl.wear.records[0].slow_writes_by_factor[3.0] == \
        pytest.approx(expected)
