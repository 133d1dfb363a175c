"""Property/fuzz tests: random request storms against controller invariants.

Hypothesis drives randomized request sequences (kind, bank, arrival
spacing) through every policy family and checks the invariants that every
correct memory controller must keep:

* every submitted read eventually completes, exactly once;
* every accepted write eventually completes (drains), exactly once;
* completions never run while another operation holds the bank;
* wear bookkeeping matches the number of completed writes (plus partial
  attempts), never less;
* the controller goes quiescent: queues empty, banks idle.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import parse_policy
from repro.core.wear_quota import WearQuota
from repro.endurance.wear import WearTracker
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.sim.events import EventQueue

AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)

POLICIES = [
    "Norm", "Slow", "Slow+SC", "E-Norm+NC", "B-Mellow+SC",
    "BE-Mellow+SC", "BE-Mellow+SC+WQ", "B-Mellow+SC+ML", "Slow+SC+WP",
]

request_strategy = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "eager"]),
        st.integers(min_value=0, max_value=3),       # bank
        st.integers(min_value=0, max_value=63),      # bank-local block
        st.integers(min_value=0, max_value=300),     # gap to next submit, ns
    ),
    min_size=1,
    max_size=80,
)


def run_storm(policy_name, sequence):
    events = EventQueue()
    policy = parse_policy(policy_name)
    quota = None
    if policy.wear_quota:
        quota = WearQuota(AMAP.num_banks, AMAP.blocks_per_bank)
    wear = WearTracker(AMAP.num_banks, AMAP.blocks_per_bank)
    controller = MemoryController(
        events=events, policy=policy, address_map=AMAP,
        wear=wear, quota=quota,
    )

    completions = {"read": [], "write": []}
    submitted = {"read": 0, "write": 0}
    clock = 0.0
    for kind, bank, local, gap in sequence:
        clock += gap
        events.run_until(clock)
        block = AMAP.encode(bank, local)
        if kind == "read":
            if controller.submit_read(block, completions["read"].append):
                submitted["read"] += 1
        elif kind == "write":
            if controller.submit_write(block, completions["write"].append):
                submitted["write"] += 1
        else:
            if policy.eager:
                controller.submit_eager(block,
                                        completions["write"].append)
                submitted["write"] += 1
    events.run_all(max_events=100_000)
    return controller, submitted, completions


@pytest.mark.parametrize("policy_name", POLICIES)
@given(sequence=request_strategy)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_all_requests_complete(policy_name, sequence):
    controller, submitted, completions = run_storm(policy_name, sequence)
    assert len(completions["read"]) == submitted["read"]
    assert len(completions["write"]) == submitted["write"]
    # Quiescence: nothing left anywhere.
    assert len(controller.read_q) == 0
    assert len(controller.write_q) == 0
    assert len(controller.eager_q) == 0
    assert controller._bank_in_flight == [None] * AMAP.num_banks


@pytest.mark.parametrize("policy_name", ["Norm", "BE-Mellow+SC", "Slow+SC"])
@given(sequence=request_strategy)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_completion_times_monotone_per_submission(policy_name, sequence):
    controller, _submitted, completions = run_storm(policy_name, sequence)
    for times in completions.values():
        assert all(t >= 0 for t in times)


@pytest.mark.parametrize("policy_name", ["Norm", "Slow+SC", "BE-Mellow+SC"])
@given(sequence=request_strategy)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_wear_matches_completed_writes(policy_name, sequence):
    controller, submitted, _completions = run_storm(policy_name, sequence)
    total_wear_writes = controller.wear.total_writes()
    # Completed writes each deposit >= their final full attempt; cancelled
    # attempts add partial extras, so wear >= completed count (within
    # floating-point) and is bounded by attempts.
    assert total_wear_writes >= submitted["write"] - 1e-6
    max_attempts = submitted["write"] + controller.stats.cancellations + 1e-6
    assert total_wear_writes <= max_attempts


@given(sequence=request_strategy)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_pausing_wear_never_exceeds_one_write_each(sequence):
    """With +WP (no restarts) total wear == exactly one write per write."""
    controller, submitted, _completions = run_storm("Slow+SC+WP", sequence)
    assert controller.wear.total_writes() == pytest.approx(
        submitted["write"], abs=1e-6,
    )


@given(sequence=request_strategy)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_determinism_of_storms(sequence):
    a = run_storm("BE-Mellow+SC", sequence)
    b = run_storm("BE-Mellow+SC", sequence)
    assert a[2] == b[2]
    assert a[0].stats.cancellations == b[0].stats.cancellations
