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
# Adversarial unit tests for the batch-advance seams: the core's analytic
# clock advance and the deferred event.  Each targets an edge the seams
# could get subtly wrong while whole-simulation results still look sane.
# ---------------------------------------------------------------------------


def test_advance_if_clear_refuses_exact_tie_with_heap_event() -> None:
    """An event due exactly at the jump target must win: the tie has to
    go through the heap so sequence ordering decides, not the jumper."""
    q = EventQueue(sanitize=False)
    q.schedule(10.0, lambda _: None)
    assert q.advance_if_clear(10.0) is False
    assert q.now == 0.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    # Strictly before the pending event the window is quiescent.
    assert q.advance_if_clear(9.0) is True
    assert q.now == 9.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_advance_if_clear_refuses_exact_tie_with_deferred_event() -> None:
    """A deferred event counts as pending even though it is not in the
    heap: jumping over (or onto) it would run the window out of order."""
    q = EventQueue(sanitize=False)
    q.defer(10.0, lambda _: None)
    assert q.advance_if_clear(10.0) is False
    assert q.advance_if_clear(11.0) is False
    assert q.advance_if_clear(9.5) is True
    assert q.now == 9.5   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_run_fast_zero_length_deferred_window_runs_inline() -> None:
    """A deferral at exactly ``now`` (zero-length quiescent window) must
    resolve inline without moving the clock - the degenerate jump."""
    q = EventQueue(sanitize=False)
    q.schedule(5.0, lambda _: None)
    assert q.run_fast(budget=1) == 1
    assert q.now == 5.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    fired = []
    q.defer(5.0, lambda _: fired.append(q.now))
    assert q.run_fast(budget=10) == 1
    assert fired == [5.0]
    assert q.now == 5.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    assert q.deferred_time is None


def test_run_fast_flushes_deferral_on_time_tie_fifo_order() -> None:
    """schedule(t) / defer(t) / schedule(t): all three tie on time, so
    reserved sequence numbers must serialize them in call order."""
    q = EventQueue(sanitize=False)
    order = []
    q.schedule(10.0, lambda _: order.append("first-scheduled"))
    q.defer(10.0, lambda _: order.append("deferred"))
    q.schedule(10.0, lambda _: order.append("last-scheduled"))
    assert q.run_fast(budget=10) == 3
    assert order == ["first-scheduled", "deferred", "last-scheduled"]
    assert q.now == 10.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_run_fast_flushes_deferral_past_earlier_heap_event() -> None:
    """An event scheduled *after* the deferral but due *before* it (the
    epoch-tick-inside-a-quiescent-window shape) must run first; the
    deferral is flushed into the heap and keeps its reserved sequence."""
    q = EventQueue(sanitize=False)
    order = []
    q.defer(50.0, lambda _: order.append(("miss-completion", q.now)))
    q.schedule(30.0, lambda _: order.append(("epoch-tick", q.now)))
    assert q.run_fast(budget=10) == 2
    assert order == [("epoch-tick", 30.0), ("miss-completion", 50.0)]
    assert q.now == 50.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_run_fast_deferred_seam_with_sanitizer_armed() -> None:
    """The inline-resolution branch has its own monotonicity check; a
    legal window must pass it and an illegal jump must trip it."""
    q = EventQueue(sanitize=True)
    fired = []
    q.defer(20.0, lambda _: fired.append(q.now))
    assert q.run_fast(budget=10) == 1
    assert fired == [20.0]
    with pytest.raises(InvariantViolation):
        q.advance_if_clear(5.0)   # behind now=20 with the sanitizer armed


def test_defer_contract() -> None:
    """One deferral at a time, never into the past."""
    q = EventQueue(sanitize=False)
    q.schedule(5.0, lambda _: None)
    q.run_fast(budget=1)
    with pytest.raises(ValueError):
        q.defer(4.0, lambda _: None)
    q.defer(6.0, lambda _: None)
    with pytest.raises(RuntimeError):
        q.defer(7.0, lambda _: None)
    q.flush_deferred()
    with pytest.raises(RuntimeError):
        q.flush_deferred()


# ---------------------------------------------------------------------------
# pass_ticks: the core's seam for instruction gaps that span periodic ticks
# ---------------------------------------------------------------------------


class _Owner:
    """A periodic tick plus the gap callback, as bound methods (the queue
    recognises ticks by ``==``, which a rebound method satisfies)."""

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

    def gap(self, _arg) -> None:
        self.log.append(("gap", self.q.now))


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
    assert q.pass_ticks(10.0, owner.gap, (owner.tick,)) is True
    assert owner.log == [("tick", 3.0), ("tick", 7.0)]
    assert q.now == 10.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    # The gap's number was reserved before the ticks rescheduled.
    assert [entry[1] for entry in q._heap] == [seq + 2]
    assert telemetry.metrics.counter("events.executed").value == 3.0


def test_pass_ticks_tie_at_the_target_takes_the_heap_path() -> None:
    """A tick due exactly at the gap target is not run in place: the gap
    event enters the heap with its reserved number, and the heap orders
    the tie (the earlier-scheduled tick first), as scheduling would."""
    q = EventQueue(sanitize=False)
    owner = _Owner(q, 4.0)
    q.schedule(10.0, owner.tick)
    seq = q._seq
    assert q.pass_ticks(10.0, owner.gap, (owner.tick,)) is False
    assert owner.log == []
    assert q.now == 0.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    assert (10.0, seq, owner.gap, None) in q._heap
    q.run_fast(2)
    assert owner.log == [("tick", 10.0), ("gap", 10.0)]


def test_pass_ticks_stops_at_an_event_a_tick_scheduled() -> None:
    """A tick that schedules another event before the target sends the
    gap to the heap under the number it reserved before the tick ran,
    so the drain runs the new event, then the gap: exactly the order
    scheduling the gap up front gives."""
    def run(passing: bool):
        q = EventQueue(sanitize=False)
        owner = _Owner(q, 100.0, spawn_at=6.0)
        q.schedule(4.0, owner.tick)
        if passing:
            assert q.pass_ticks(10.0, owner.gap, (owner.tick,)) is False
        else:
            q.schedule(10.0, owner.gap)
        q.run_until(10.0)
        return owner.log, sorted(entry[:2] for entry in q._heap), q._seq

    assert run(True) == run(False)
    assert run(True)[0] == [("tick", 4.0), ("other", 6.0), ("gap", 10.0)]


def test_pass_ticks_leaves_other_events_to_the_heap() -> None:
    """Only the named ticks run in place: any other event due before the
    target sends the gap to the heap with nothing run."""
    q = EventQueue(sanitize=False)
    owner = _Owner(q, 100.0)
    q.schedule(3.0, owner.other)
    q.schedule(5.0, owner.tick)
    assert q.pass_ticks(10.0, owner.gap, (owner.tick,)) is False
    assert owner.log == []
    q.run_fast(3)
    assert owner.log == [("other", 3.0), ("tick", 5.0), ("gap", 10.0)]


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
