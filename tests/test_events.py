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
