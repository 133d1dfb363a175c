"""Deterministic event queue used by the whole simulator.

Events are ``(time_ns, seq, fn, arg)`` entries ordered first by time and
then by insertion order, which makes simulation results independent of
callback identity and fully reproducible.  ``seq`` is unique, so ``fn``
and ``arg`` are never compared; the queue runs an entry as ``fn(arg)``.
Every ``fn`` the simulator schedules is a bound method of a live
simulator object, which is what lets a snapshot name each pending event
(see :mod:`repro.checkpoint.codec`).

The queue also exposes the core's clock-advance seam,
:meth:`EventQueue.advance_if_clear`: when no pending event is due at or
before a target time, the clock can jump there directly with the exact
observable side effects of scheduling-then-popping an event at that time
(monotonicity check, clock update, executed-event count) minus the heap
round trip and callback allocation.

The miss path has its own seam, the *deferred event*
(:meth:`EventQueue.defer`): a single event that reserves its sequence
number immediately - so FIFO tie-breaking against everything scheduled
after it is preserved - but stays out of the heap until the drain loop
(:meth:`run_fast`) decides its fate.  If the simulation window up to the
deferred time is quiescent (no pending event due at or before it), the
loop jumps the clock and runs the callback inline, skipping the heap
round trip; otherwise the event is flushed into the heap with its
reserved sequence number and ordinary (time, seq) ordering takes over.
The core's third seam, :meth:`EventQueue.pass_ticks`, crosses an
instruction gap whose window holds only periodic ticks: it reserves the
gap event's sequence number, runs the ticks due strictly before the gap
target in place, and then either jumps the clock to the target or, when
any other event or a tie stands in the way, pushes the gap event into
the heap under its reserved number.

Every seam is observably identical to having scheduled the event
eagerly; docs/performance.md explains why.
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

    __slots__ = ("_heap", "_seq", "now", "_sanitize", "_executed",
                 "_deferred", "stop")

    def __init__(self, sanitize: Optional[bool] = None,
                 telemetry: Telemetry = NULL_TELEMETRY) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self.now: float = 0.0
        self._sanitize = resolve(sanitize)
        self._executed = (telemetry.metrics.counter("events.executed")
                          if telemetry.enabled else None)
        # The single deferred-event slot (see module doc).
        self._deferred: Optional[Entry] = None
        # Cooperative stop flag for run_fast: the driver sets it when its
        # termination condition holds, ending the batched drain.
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

    def advance_if_clear(self, time_ns: float) -> bool:   # simlint: hotpath
        """Jump the clock to ``time_ns`` unless an event is due first.

        Returns False (and changes nothing) when any pending event is
        scheduled at or before ``time_ns`` - including the exact-tie case,
        which must go through the heap so FIFO sequence ordering decides.
        On success the clock moves and one executed event is accounted,
        exactly as if an event at ``time_ns`` had been scheduled and
        popped; the caller then runs its callback body inline.
        """
        heap = self._heap
        if heap and heap[0][0] <= time_ns:
            return False
        deferred = self._deferred
        if deferred is not None and deferred[0] <= time_ns:
            # A deferred event counts as pending even though it is not in
            # the heap yet.  The core never advances with one outstanding
            # (it owns the clock only from loop-level frames, where the
            # slot is empty), but the contract must hold for any caller.
            return False
        if self._sanitize:
            check(
                time_ns >= self.now, "event-time-monotonicity",
                "analytic advance moved the clock backwards",
                event_time_ns=time_ns, now_ns=self.now,
            )
        self.now = time_ns
        executed = self._executed
        if executed is not None:
            executed.value += 1.0
        return True

    def pop_and_run(self) -> bool:   # simlint: hotpath
        """Run the earliest event.  Returns False when the queue is empty.

        An outstanding deferred event is flushed into the heap first, so
        it runs in its (time, sequence) place.
        """
        heap = self._heap
        if self._deferred is not None:
            self.flush_deferred()
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

    def pass_ticks(self, time_ns: float, fn: Callback,
                   ticks: Tuple[Callback, ...]) -> bool:   # simlint: hotpath
        """Cross a gap to ``time_ns``, running periodic ticks in place.

        Called by the clock owner in place of scheduling ``fn(None)`` at
        ``time_ns`` when :meth:`advance_if_clear` would refuse.  The
        gap's sequence number is reserved first, exactly as
        :meth:`schedule` would take it.  Then, while the earliest
        pending event is one of ``ticks`` (compared with ``==``, so a
        rebound method matches) and due *strictly* before ``time_ns``,
        it is popped and run in place with a popped event's effects
        (monotonicity check, clock update, executed count), so any
        event it schedules takes its (time, seq) place.  If the window
        is then clear, the clock moves to ``time_ns``, one executed
        event is counted for the gap, and True is returned: the caller
        runs the gap's body in-line.  Otherwise - another event due at
        or before ``time_ns`` (a tie included), a deferral outstanding
        or :attr:`stop` raised by a tick - the gap event enters the heap
        under its reserved number and False is returned.
        """
        heap = self._heap
        seq = self._seq
        self._seq = seq + 1
        sanitize = self._sanitize
        executed = self._executed
        while (heap and heap[0][0] < time_ns and heap[0][2] in ticks
               and not self.stop):
            tick_ns, tick_seq, tick_fn, arg = heappop(heap)
            if sanitize:
                check(
                    tick_ns >= self.now, "event-time-monotonicity",
                    "event queue popped an event from the past",
                    event_time_ns=tick_ns, now_ns=self.now,
                    sequence=tick_seq,
                )
            self.now = tick_ns
            if executed is not None:
                executed.value += 1.0
            tick_fn(arg)
        if (self.stop or (heap and heap[0][0] <= time_ns)
                or self._deferred is not None):
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

    # ------------------------------------------------------------------
    # Deferred event: the miss-path batch-advance seam
    # ------------------------------------------------------------------

    def defer(self, time_ns: float, fn: Callback, arg: Any = None) -> None:
        """Register ``fn(arg)`` at ``time_ns`` without entering the heap.

        Exactly one deferral may be outstanding; its sequence number is
        reserved *now*, so any event scheduled afterwards sorts behind it
        on time ties - precisely as if :meth:`schedule` had been called.
        The drain loop resolves the slot before running anything else:
        inline when the window up to ``time_ns`` is quiescent, flushed
        into the heap (reserved seq intact) when an event intervenes.
        """
        if time_ns < self.now:
            raise ValueError(
                f"cannot defer event at {time_ns} ns before now ({self.now} ns)"
            )
        if self._deferred is not None:
            raise RuntimeError("a deferred event is already outstanding")
        self._deferred = (time_ns, self._seq, fn, arg)
        self._seq += 1

    @property
    def deferred_time(self) -> Optional[float]:
        """Time of the outstanding deferred event, or None."""
        deferred = self._deferred
        return deferred[0] if deferred is not None else None

    def flush_deferred(self) -> None:
        """Push the outstanding deferral into the heap (reserved seq)."""
        deferred = self._deferred
        if deferred is None:
            raise RuntimeError("no deferred event to flush")
        heappush(self._heap, deferred)
        self._deferred = None

    def run_fast(self, budget: int) -> int:   # simlint: hotpath
        """Batched drain: run up to ``budget`` events, deferral-aware.

        The simulation's driver loop: every per-event attribute load is
        hoisted out of the loop and the deferred-event slot is resolved at
        the top of each iteration - run inline when no pending event is due at or before
        its time (the analytic jump across a quiescent window), flushed
        into the heap otherwise, including the exact-tie case so FIFO
        sequence ordering decides.  Returns the number of events executed;
        the drain ends when :attr:`stop` is set, the budget is spent, or
        no event (heap or deferred) remains.  Each inline run has the
        exact observable side effects of flushing then popping: the
        monotonicity check, the clock update and one executed event.
        """
        heap = self._heap
        sanitize = self._sanitize
        executed = self._executed
        pop = heappop
        count = 0
        while not self.stop and count < budget:
            deferred = self._deferred
            if deferred is not None:
                if heap and heap[0][0] <= deferred[0]:
                    heappush(heap, deferred)
                    self._deferred = None
                else:
                    self._deferred = None
                    if sanitize:
                        check(
                            deferred[0] >= self.now,
                            "event-time-monotonicity",
                            "deferred event would run in the past",
                            event_time_ns=deferred[0], now_ns=self.now,
                            sequence=deferred[1],
                        )
                    self.now = deferred[0]
                    if executed is not None:
                        executed.value += 1.0
                    deferred[2](deferred[3])
                    count += 1
                    continue
            if not heap:
                break
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
        """Run every event scheduled (or deferred) at or before ``time_ns``."""
        while True:
            deferred = self._deferred
            if deferred is not None and deferred[0] <= time_ns:
                self.flush_deferred()
            if not (self._heap and self._heap[0][0] <= time_ns):
                break
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
