"""Runtime invariant sanitizer: violations raise, clean runs stay clean.

Two obligations, both from the "sanitizer is read-only" contract:

* corrupted component state must raise a structured
  :class:`InvariantViolation` naming the broken invariant;
* an uncorrupted run with the sanitizer armed must finish with zero
  violations and produce *bit-identical* statistics to an unsanitized run.
"""

import heapq
from dataclasses import replace

import pytest

from repro.analysis.validation import validate_result
from repro.endurance.startgap import StartGap
from repro.endurance.wear import WearTracker
from repro.sim.sanitize import (
    ENV_VAR,
    InvariantViolation,
    check,
    close_enough,
    env_enabled,
    resolve,
)
from repro.memory.queues import Request, RequestQueue, WRITE
from repro.sim.config import SimConfig
from repro.sim.events import EventQueue
from repro.sim import system as system_module
from repro.sim.system import System
from repro.store import result_to_dict

# Small enough to run in seconds, large enough to exercise every seam
# (writebacks, eager writes, cancellations, wear accounting).
SMOKE_CONFIG = SimConfig(workload="stream", policy="BE-Mellow+SC").scaled(0.02)


def make_request(bank=0, block=None):
    return Request(kind=WRITE, block=block if block is not None else bank,
                   bank=bank, rank=0, row=0, arrival_ns=0.0)


# --------------------------------------------------------------------------
# Arming: env var and config flag
# --------------------------------------------------------------------------

def test_resolve_explicit_flag_wins_over_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    assert resolve(False) is False
    assert resolve(True) is True
    assert resolve(None) is True

@pytest.mark.parametrize("value,expected", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("", False), ("off", False),
])
def test_env_enabled_truthiness(monkeypatch, value, expected):
    monkeypatch.setenv(ENV_VAR, value)
    assert env_enabled() is expected

def test_env_arms_components(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    eq = EventQueue()
    heapq.heappush(eq._heap, (-1.0, 0, lambda _: None, None))
    with pytest.raises(InvariantViolation):
        eq.pop_and_run()


# --------------------------------------------------------------------------
# InvariantViolation structure
# --------------------------------------------------------------------------

def test_check_raises_with_invariant_and_state():
    with pytest.raises(InvariantViolation) as excinfo:
        check(False, "example-invariant", "it broke", bank=3, damage=1.5)
    violation = excinfo.value
    assert violation.invariant == "example-invariant"
    assert violation.state == {"bank": 3, "damage": 1.5}
    assert isinstance(violation, AssertionError)
    assert "example-invariant" in str(violation)

def test_check_passes_silently():
    check(True, "example-invariant", "fine")

def test_close_enough_tolerance():
    assert close_enough(1.0, 1.0 + 1e-9)
    assert not close_enough(1.0, 1.01)


# --------------------------------------------------------------------------
# Event-queue time monotonicity
# --------------------------------------------------------------------------

def test_event_queue_detects_time_regression():
    eq = EventQueue(sanitize=True)
    eq.schedule(10.0, lambda _: None)
    eq.run_all()
    assert eq.now == 10.0   # simlint: ignore[SIM004] -- exact by construction
    # schedule() refuses past times, so corrupt the heap directly - the
    # sanitizer is the backstop for exactly this kind of internal bug.
    heapq.heappush(eq._heap, (5.0, 999, lambda _: None, None))
    with pytest.raises(InvariantViolation) as excinfo:
        eq.pop_and_run()
    assert excinfo.value.invariant == "event-time-monotonicity"
    assert excinfo.value.state["event_time_ns"] == 5.0

def test_event_queue_clean_when_unsanitized():
    eq = EventQueue(sanitize=False)
    heapq.heappush(eq._heap, (-1.0, 0, lambda _: None, None))
    assert eq.pop_and_run()   # silently accepted: the check is opt-in


# --------------------------------------------------------------------------
# Request-queue occupancy conservation
# --------------------------------------------------------------------------

def test_queue_detects_size_counter_corruption():
    queue = RequestQueue(capacity=4, name="write", sanitize=True)
    queue.push(make_request(bank=0))
    queue._size = 3        # desync the aggregate counter
    with pytest.raises(InvariantViolation) as excinfo:
        queue.push(make_request(bank=1))
    assert excinfo.value.invariant == "queue-occupancy"

def test_queue_detects_size_out_of_bounds():
    queue = RequestQueue(capacity=4, name="write", sanitize=True)
    queue._size = -2
    with pytest.raises(InvariantViolation):
        queue.push(make_request(bank=0))

def test_queue_clean_under_normal_mutation():
    queue = RequestQueue(capacity=4, name="write", sanitize=True)
    for bank in (0, 1, 0):
        queue.push(make_request(bank=bank))
    queue.push_front(make_request(bank=1))
    assert queue.pop_bank(0).bank == 0
    assert queue.pop_bank(1).bank == 1
    assert len(queue) == 2


# --------------------------------------------------------------------------
# Wear accounting
# --------------------------------------------------------------------------

def test_wear_rejects_out_of_range_bank():
    wear = WearTracker(num_banks=2, blocks_per_bank=64, sanitize=True)
    with pytest.raises(InvariantViolation) as excinfo:
        wear.record_write(5, 1.0)
    assert excinfo.value.invariant == "wear-conservation"

def test_wear_rejects_negative_fraction():
    wear = WearTracker(num_banks=2, blocks_per_bank=64, sanitize=True)
    with pytest.raises(InvariantViolation) as excinfo:
        wear.record_write(0, 1.0, fraction=-0.5)
    assert excinfo.value.invariant == "wear-monotonicity"

def test_wear_rejects_sub_normal_slow_factor():
    wear = WearTracker(num_banks=2, blocks_per_bank=64, sanitize=True)
    with pytest.raises(InvariantViolation):
        wear.record_write(0, 0.5)

def test_wear_detects_damage_regression():
    wear = WearTracker(num_banks=2, blocks_per_bank=64, sanitize=True)
    wear.record_write(0, 1.0)
    wear._damage_watermarks[0] = float("inf")   # fake a higher past damage
    with pytest.raises(InvariantViolation) as excinfo:
        wear.record_write(0, 3.0)
    assert excinfo.value.invariant == "wear-monotonicity"

def test_wear_clean_accounting_is_untouched():
    armed = WearTracker(num_banks=2, blocks_per_bank=64, sanitize=True)
    plain = WearTracker(num_banks=2, blocks_per_bank=64, sanitize=False)
    for tracker in (armed, plain):
        for bank, factor in [(0, 1.0), (1, 3.0), (0, 3.0), (1, 1.0)]:
            tracker.record_write(bank, factor, fraction=0.75)
    assert armed.total_writes() == plain.total_writes()
    assert [r.damage(armed.model) for r in armed.records] == \
        [r.damage(plain.model) for r in plain.records]


# --------------------------------------------------------------------------
# Start-Gap remap bijectivity
# --------------------------------------------------------------------------

def test_startgap_detects_corrupt_start_register():
    gap = StartGap(num_lines=16, psi=1, sanitize=True)
    gap.start = 99                     # out of the logical range
    with pytest.raises(InvariantViolation) as excinfo:
        gap.record_write()             # psi=1: next write moves the gap
    assert excinfo.value.invariant == "startgap-bijectivity"

def test_startgap_detects_corrupt_gap_register():
    gap = StartGap(num_lines=16, psi=1, sanitize=True)
    gap.gap = 40
    with pytest.raises(InvariantViolation):
        gap.record_write()

def test_startgap_clean_through_full_rotation():
    gap = StartGap(num_lines=8, psi=1, sanitize=True)
    for _ in range(3 * (gap.num_slots + 1)):
        gap.record_write()             # several full gap rotations
    mapped = {gap.remap(i) for i in range(gap.num_lines)}
    assert len(mapped) == gap.num_lines
    assert gap.gap not in mapped


# --------------------------------------------------------------------------
# Controller-side wear conservation (the cross-component check)
# --------------------------------------------------------------------------

def test_phantom_wear_write_trips_conservation_check():
    # A wear-tracker write the controller never issued breaks the
    # "controller-issued writes == recorded writes" conservation law at the
    # next real write completion.
    config = replace(SMOKE_CONFIG, warmup_accesses=0, sanitize=True)
    system = System(config)
    system.events.schedule(0.5, lambda _: system.wear.record_write(0, 1.0))
    with pytest.raises(InvariantViolation) as excinfo:
        system.run()
    assert excinfo.value.invariant == "wear-conservation"


# --------------------------------------------------------------------------
# Clean runs: zero violations and bit-identical results
# --------------------------------------------------------------------------

def test_sanitized_run_is_clean_and_bit_identical(monkeypatch):
    reports = []

    def spy(result, reads_queued=0):
        report = validate_result(result, reads_queued)
        reports.append(report)
        return report

    monkeypatch.setattr(system_module, "validate_result", spy)
    monkeypatch.delenv(ENV_VAR, raising=False)
    plain = System(SMOKE_CONFIG).run()
    # The result cross-checks run on sanitized runs only.
    assert reports == []
    monkeypatch.setenv(ENV_VAR, "1")
    sanitized_system = System(SMOKE_CONFIG)
    assert sanitized_system.sanitize
    sanitized = sanitized_system.run()
    assert result_to_dict(sanitized) == result_to_dict(plain)
    assert len(reports) == 1
    assert reports[0].ok and reports[0].checks_run >= 6


def test_corrupted_counter_raises_result_consistency():
    # Pause the sanitized run inside the measurement window, count a row
    # hit that was never issued, and let it finish: the collected result
    # no longer adds up.
    config = replace(SMOKE_CONFIG, sanitize=True,
                     checkpoint_every=SMOKE_CONFIG.warmup_accesses + 100)
    system = System(config)
    system.start_run()
    assert system.continue_run() is None
    system.controller.stats.read_row_hits += 1
    with pytest.raises(InvariantViolation) as excinfo:
        system.finish_run()
    assert excinfo.value.invariant == "result-consistency"
    assert "row hit/miss split" in str(excinfo.value)

def test_sanitize_flag_run_matches_config_cache_identity():
    armed = replace(SMOKE_CONFIG, sanitize=True)
    # Read-only sanitizer => same results => one shared cache entry.
    assert armed.cache_key() == SMOKE_CONFIG.cache_key()
    assert armed.cache_digest() == SMOKE_CONFIG.cache_digest()
    assert result_to_dict(System(armed).run()) == \
        result_to_dict(System(SMOKE_CONFIG).run())
