"""Unit tests for the deterministic event queue."""

import pytest

from repro.sim.events import EventQueue
from repro.sim.sanitize import InvariantViolation


def test_events_run_in_time_order():
    eq = EventQueue()
    order = []
    eq.schedule(30, lambda _: order.append("c"))
    eq.schedule(10, lambda _: order.append("a"))
    eq.schedule(20, lambda _: order.append("b"))
    eq.run_all()
    assert order == ["a", "b", "c"]


def test_ties_break_in_insertion_order():
    eq = EventQueue()
    order = []
    for label in "abcde":
        eq.schedule(5, lambda _, l=label: order.append(l))
    eq.run_all()
    assert order == list("abcde")


def test_now_tracks_event_time():
    eq = EventQueue()
    seen = []
    eq.schedule(42.5, lambda _: seen.append(eq.now))
    eq.run_all()
    assert seen == [42.5]
    assert eq.now == 42.5   # simlint: ignore[SIM004] -- exact by construction (clock set from this literal)


def test_schedule_in_is_relative():
    eq = EventQueue()
    seen = []
    eq.schedule(10, lambda _: eq.schedule_in(5, lambda _: seen.append(eq.now)))
    eq.run_all()
    assert seen == [15]


def test_cannot_schedule_in_the_past():
    eq = EventQueue()
    eq.schedule(10, lambda _: None)
    eq.run_all()
    with pytest.raises(ValueError):
        eq.schedule(5, lambda _: None)


def test_negative_delay_rejected():
    eq = EventQueue()
    with pytest.raises(ValueError):
        eq.schedule_in(-1, lambda _: None)


def test_run_until_stops_at_boundary_inclusive():
    eq = EventQueue()
    hits = []
    eq.schedule(10, lambda _: hits.append(10))
    eq.schedule(20, lambda _: hits.append(20))
    eq.schedule(30, lambda _: hits.append(30))
    eq.run_until(20)
    assert hits == [10, 20]
    assert eq.now == 20   # simlint: ignore[SIM004] -- exact by construction (clock set from this literal)
    assert len(eq) == 1


def test_run_until_advances_now_when_no_events():
    eq = EventQueue()
    eq.run_until(100)
    assert eq.now == 100   # simlint: ignore[SIM004] -- exact by construction (clock set from this literal)


def test_pop_and_run_empty_returns_false():
    eq = EventQueue()
    assert eq.pop_and_run() is False


def test_events_scheduled_during_execution_run():
    eq = EventQueue()
    order = []

    def first(_):
        order.append("first")
        eq.schedule_in(1, lambda _: order.append("second"))

    eq.schedule(0, first)
    eq.run_all()
    assert order == ["first", "second"]


def test_run_all_respects_max_events():
    eq = EventQueue()

    def rearm(_):
        eq.schedule_in(1, rearm)

    eq.schedule(0, rearm)
    count = eq.run_all(max_events=50)
    assert count == 50


def test_peek_time():
    eq = EventQueue()
    assert eq.peek_time() is None
    eq.schedule(7, lambda _: None)
    assert eq.peek_time() == 7


# ---------------------------------------------------------------------------
# cross: the core's seam for instruction gaps that span pending events
# ---------------------------------------------------------------------------


class _Owner:
    """A periodic tick, another event and the gap callback, as bound
    methods, logging what ran when."""

    def __init__(self, q: EventQueue, period: float,
                 spawn_at: float = -1.0) -> None:
        self.q = q
        self.period = period
        self.spawn_at = spawn_at
        self.log = []

    def tick(self, _arg) -> None:
        self.log.append(("tick", self.q.now))
        if self.spawn_at >= 0:
            self.q.schedule(self.spawn_at, self.other)
            self.spawn_at = -1.0
        self.q.schedule_in(self.period, self.tick)

    def other(self, _arg) -> None:
        self.log.append(("other", self.q.now))

    def stop(self, _arg) -> None:
        self.log.append(("stop", self.q.now))
        self.q.stop = True

    def gap(self, _arg) -> None:
        self.log.append(("gap", self.q.now))


def _heap_path(setup, target: float):
    """The reference: the gap scheduled up front and drained by the heap.
    Returns the log, the pending (time, seq) pairs and the next seq."""
    q = EventQueue(sanitize=True)
    owner = setup(q)
    q.schedule(target, owner.gap)
    q.run_until(target)
    return owner.log, sorted(entry[:2] for entry in q._heap), q._seq


def test_pass_ticks_runs_ticks_in_place_and_crosses_the_gap() -> None:
    """Ticks due strictly before the target run in (time, seq) order with
    a popped event's effects; the clock then sits at the target, and
    every tick and the gap count as executed events."""
    from repro.telemetry import Telemetry

    telemetry = Telemetry(num_banks=1, clock=lambda: 0.0)
    q = EventQueue(sanitize=True, telemetry=telemetry)
    owner = _Owner(q, 4.0)
    q.schedule(3.0, owner.tick)
    seq = q._seq
    assert q.cross(10.0, owner.gap) is True
    assert owner.log == [("tick", 3.0), ("tick", 7.0)]
    assert q.now == 10.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    # The gap's number was reserved before the ticks rescheduled.
    assert [entry[1] for entry in q._heap] == [seq + 2]
    assert telemetry.metrics.counter("events.executed").value == 3.0


def test_pass_ticks_tie_at_the_target_takes_the_heap_path() -> None:
    """An event due exactly at the gap target is not run in place: the
    gap event enters the heap with its reserved number, and the heap
    orders the tie (the earlier-scheduled tick first), as scheduling
    would."""
    q = EventQueue(sanitize=False)
    owner = _Owner(q, 4.0)
    q.schedule(10.0, owner.tick)
    seq = q._seq
    assert q.cross(10.0, owner.gap) is False
    assert owner.log == []
    assert q.now == 0.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    assert (10.0, seq, owner.gap, None) in q._heap
    q.run_fast(2)
    assert owner.log == [("tick", 10.0), ("gap", 10.0)]


def test_cross_runs_every_event_due_before_the_target_in_heap_order(
) -> None:
    """Every event due strictly before the target runs in place, ticks
    or not, in (time, seq) order - an event that an in-place event
    schedules inside the window included - and the outcome (log,
    pending entries, next sequence number) is what scheduling the gap
    up front and draining the heap gives."""
    def setup(q: EventQueue) -> _Owner:
        owner = _Owner(q, 100.0, spawn_at=6.0)
        q.schedule(5.0, owner.other)
        q.schedule(4.0, owner.tick)
        q.schedule(5.0, owner.other)
        return owner

    q = EventQueue(sanitize=True)
    owner = setup(q)
    assert q.cross(10.0, owner.gap) is True
    owner.gap(None)   # the caller runs the gap's body in-line
    crossed = owner.log, sorted(entry[:2] for entry in q._heap), q._seq
    assert crossed == _heap_path(setup, 10.0)
    assert owner.log == [("tick", 4.0), ("other", 5.0), ("other", 5.0),
                         ("other", 6.0), ("gap", 10.0)]


@pytest.mark.parametrize("blocker", ["tie", "stop"])
def test_cross_pushes_the_gap_on_a_tie_or_a_stop(blocker: str) -> None:
    """A tie at the target, or a ``stop`` raised by an event run in
    place, ends the crossing: the gap event enters the heap under the
    number reserved before anything ran, and a later drain gives the
    heap path's order."""
    def setup(q: EventQueue) -> _Owner:
        owner = _Owner(q, 100.0)
        q.schedule(3.0, owner.other)
        if blocker == "tie":
            q.schedule(10.0, owner.other)
        else:
            q.schedule(5.0, owner.stop)
            q.schedule(7.0, owner.other)
        return owner

    q = EventQueue(sanitize=True)
    owner = setup(q)
    seq = q._seq
    assert q.cross(10.0, owner.gap) is False
    assert (10.0, seq, owner.gap, None) in q._heap
    if blocker == "tie":
        assert owner.log == [("other", 3.0)]
        assert q.now == 3.0   # simlint: ignore[SIM004] -- event times are set, not computed
    else:
        assert owner.log == [("other", 3.0), ("stop", 5.0)]
        q.stop = False
    q.run_until(10.0)
    reference = EventQueue(sanitize=True)
    ref_owner = setup(reference)
    reference.schedule(10.0, ref_owner.gap)
    reference.run_fast(10)
    reference.stop = False
    reference.run_until(10.0)
    assert owner.log == ref_owner.log
    assert owner.log[-1] == ("gap", 10.0)


@pytest.mark.parametrize("outcome", ["crossed", "pushed"])
def test_cross_counts_executed_events_as_the_heap_path(outcome: str) -> None:
    """``events.executed`` counts each event run in place, and the gap
    once, wherever it runs: the series does not depend on the path."""
    from repro.telemetry import Telemetry

    def run(crossing: bool) -> float:
        telemetry = Telemetry(num_banks=1, clock=lambda: 0.0)
        q = EventQueue(sanitize=True, telemetry=telemetry)
        owner = _Owner(q, 4.0)
        q.schedule(1.0, owner.tick)
        q.schedule(2.0, owner.other)
        if outcome == "pushed":
            q.schedule(10.0, owner.other)
        if crossing:
            if q.cross(10.0, owner.gap):
                assert outcome == "crossed"
                owner.gap(None)
        else:
            q.schedule(10.0, owner.gap)
        q.run_until(10.0)
        assert owner.log[-1] == ("gap", 10.0)
        return telemetry.metrics.counter("events.executed").value

    # Ticks at 1, 5 and 9, the other event at 2 (and at 10), the gap.
    assert run(True) == run(False) == (5.0 if outcome == "crossed" else 6.0)


def test_pass_ticks_behind_now_with_sanitizer_armed() -> None:
    """A gap whose target lies behind the clock trips the sanitizer's
    monotonicity check instead of moving the clock backwards."""
    q = EventQueue(sanitize=True)
    owner = _Owner(q, 4.0)
    q.schedule(20.0, owner.other)
    q.run_fast(budget=10)
    assert q.now == 20.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    with pytest.raises(InvariantViolation):
        q.cross(5.0, owner.gap)
    assert q.now == 20.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    # A legal gap passes the same check.
    assert q.cross(25.0, owner.gap) is True
    assert q.now == 25.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_checkpoint_pause_inside_a_hit_stretch_resumes_byte_equal() -> None:
    """Pauses that land between two LLC hits of the core's in-line loop
    (the access count crosses ``checkpoint_every`` mid-stretch, and the
    next record would hit as well) capture, restore into a fresh system
    and finish byte-equal to a straight-through run."""
    import dataclasses
    import json

    from repro.checkpoint import capture_state, restore_state
    from repro.sim.config import SimConfig
    from repro.sim.system import System
    from repro.store import result_to_dict

    config = SimConfig(workload="hmmer", policy="BE-Mellow+SC",
                       seed=5).scaled(0.02)
    straight = json.dumps(result_to_dict(System(config).run()),
                          sort_keys=True)
    system = System(dataclasses.replace(config, checkpoint_every=517))
    system.start_run()
    inside_hits = 0
    while (result := system.continue_run()) is None:
        record = system.core._gap_record
        if record is not None and system.llc.cache.lookup(record.block):
            inside_hits += 1
        state = capture_state(system)
        system = System(system.config)
        restore_state(system, state)
        system.rearm_after_restore()
    assert inside_hits >= 3
    assert json.dumps(result_to_dict(result), sort_keys=True) == straight
