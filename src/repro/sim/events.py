"""Deterministic event queue used by the whole simulator.

Events are ``(time_ns, seq, fn, arg)`` entries ordered first by time and
then by insertion order, which makes simulation results independent of
callback identity and fully reproducible.  ``seq`` is unique, so ``fn``
and ``arg`` are never compared; the queue runs an entry as ``fn(arg)``.
Every ``fn`` the simulator schedules is a bound method of a live
simulator object, which is what lets a snapshot name each pending event
(see :mod:`repro.checkpoint.codec`).

The core, which owns the clock between its accesses, crosses an
instruction gap in one of two ways.  When no pending event is due at or
before the gap target it moves :attr:`EventQueue.now` there itself, with
the executed-event count a popped event would have had.  Otherwise it
calls :meth:`EventQueue.cross`, the queue's one gap seam: it reserves
the gap event's sequence number, runs every event due strictly before
the target in place, in heap order, and then either jumps the clock to
the target or, on a tie at the target or a raised :attr:`~EventQueue.stop`,
pushes the gap event into the heap under its reserved number.  Either
way the outcome is observably identical to having scheduled the gap
event up front; docs/performance.md explains why.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.sanitize import check, resolve
from repro.telemetry import NULL_TELEMETRY, Telemetry

Callback = Callable[[Any], None]
#: One pending event: ``(time_ns, seq, fn, arg)``.
Entry = Tuple[float, int, Callback, Any]


class EventQueue:
    """A min-heap of timestamped callbacks with stable FIFO tie-breaking.

    With the sanitizer armed (``sanitize=True``, or ``REPRO_SANITIZE=1``
    when the argument is left at ``None``) every pop verifies the simulated
    clock is monotone nondecreasing and raises
    :class:`~repro.sim.sanitize.InvariantViolation` otherwise.

    With telemetry enabled the queue keeps an executed-event counter; the
    counter object is resolved once here so the per-pop cost is a single
    ``is not None`` check.  Analytic advances count too: one advance stands
    in for exactly one popped event, so the ``events.executed`` series
    does not depend on how the clock got there.
    """

    __slots__ = ("_heap", "_seq", "now", "_sanitize", "_executed", "stop")

    def __init__(self, sanitize: Optional[bool] = None,
                 telemetry: Telemetry = NULL_TELEMETRY) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self.now: float = 0.0
        self._sanitize = resolve(sanitize)
        self._executed = (telemetry.metrics.counter("events.executed")
                          if telemetry.enabled else None)
        # Cooperative stop: the driver raises it to end run_fast's drain;
        # the core reads it to stop moving the clock itself.
        self.stop = False

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time_ns: float, fn: Callback, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run at absolute ``time_ns``."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule event at {time_ns} ns before now ({self.now} ns)"
            )
        heappush(self._heap, (time_ns, self._seq, fn, arg))
        self._seq += 1

    def schedule_in(self, delay_ns: float, fn: Callback,
                    arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run ``delay_ns`` after the current time."""
        if delay_ns < 0:
            raise ValueError(f"negative delay: {delay_ns}")
        self.schedule(self.now + delay_ns, fn, arg)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None when the queue is empty."""
        return self._heap[0][0] if self._heap else None

    def pop_and_run(self) -> bool:   # simlint: hotpath
        """Run the earliest event.  Returns False when the queue is empty."""
        heap = self._heap
        if not heap:
            return False
        time_ns, seq, fn, arg = heappop(heap)
        if self._sanitize:
            check(
                time_ns >= self.now, "event-time-monotonicity",
                "event queue popped an event from the past",
                event_time_ns=time_ns, now_ns=self.now, sequence=seq,
            )
        self.now = time_ns
        executed = self._executed
        if executed is not None:
            executed.value += 1.0
        fn(arg)
        return True

    def cross(self, time_ns: float,
              fn: Callback) -> bool:   # simlint: hotpath
        """Cross a gap to ``time_ns``, running what is due before it in place.

        Called by the clock owner in place of scheduling ``fn(None)`` at
        ``time_ns`` when an event is due at or before it.  The gap's
        sequence number is reserved first, exactly as :meth:`schedule`
        would take it.  Then every event due *strictly* before
        ``time_ns`` is popped and run in place, in (time, seq) order and
        with a popped event's effects (monotonicity check, clock update,
        executed count), so an event one of them schedules inside the
        window runs in its turn too.  If the target is then reached, the
        clock moves to ``time_ns``, one executed event is counted for
        the gap, and True is returned: the caller runs the gap's body
        in-line.  On a tie at ``time_ns`` or a raised :attr:`stop`, the
        gap event enters the heap under its reserved number and False is
        returned, so the heap orders the tie as scheduling would have.
        """
        heap = self._heap
        seq = self._seq
        self._seq = seq + 1
        sanitize = self._sanitize
        executed = self._executed
        while heap and heap[0][0] < time_ns and not self.stop:
            event_ns, event_seq, event_fn, arg = heappop(heap)
            if sanitize:
                check(
                    event_ns >= self.now, "event-time-monotonicity",
                    "event queue popped an event from the past",
                    event_time_ns=event_ns, now_ns=self.now,
                    sequence=event_seq,
                )
            self.now = event_ns
            if executed is not None:
                executed.value += 1.0
            event_fn(arg)
        if self.stop or (heap and heap[0][0] <= time_ns):
            heappush(heap, (time_ns, seq, fn, None))
            return False
        if sanitize:
            check(
                time_ns >= self.now, "event-time-monotonicity",
                "analytic advance moved the clock backwards",
                event_time_ns=time_ns, now_ns=self.now,
            )
        self.now = time_ns
        if executed is not None:
            executed.value += 1.0
        return True

    def run_fast(self, budget: int) -> int:   # simlint: hotpath
        """Batched drain: run up to ``budget`` events.

        The simulation's driver loop, with every per-event attribute load
        hoisted out of the loop.  Returns the number of events executed;
        the drain ends when :attr:`stop` is set, the budget is spent, or
        the heap is empty.
        """
        heap = self._heap
        sanitize = self._sanitize
        executed = self._executed
        pop = heappop
        count = 0
        while heap and not self.stop and count < budget:
            time_ns, seq, fn, arg = pop(heap)
            if sanitize:
                check(
                    time_ns >= self.now, "event-time-monotonicity",
                    "event queue popped an event from the past",
                    event_time_ns=time_ns, now_ns=self.now, sequence=seq,
                )
            self.now = time_ns
            if executed is not None:
                executed.value += 1.0
            fn(arg)
            count += 1
        return count

    def run_until(self, time_ns: float) -> None:
        """Run every event scheduled at or before ``time_ns``."""
        while self._heap and self._heap[0][0] <= time_ns:
            self.pop_and_run()
        if self.now < time_ns:
            self.now = time_ns

    def run_all(self, max_events: Optional[int] = None) -> int:
        """Drain the queue through :meth:`run_fast`.

        Clears :attr:`stop` first, as the simulation driver does before
        each drain.  Returns the number of events executed.
        """
        self.stop = False
        return self.run_fast(sys.maxsize if max_events is None else max_events)
