"""Memory-controller request queues (Table II).

Three queues with strictly decreasing priority:

* ReadQueue   - 32 entries, highest priority;
* WriteQueue  - 32 entries, middle priority, drain thresholds 16 (low) /
  32 (high);
* EagerMellowQueue - 16 entries, lowest priority, never triggers drains and
  only ever issues slow writes.

Each queue keeps a per-bank FIFO index so the controller can ask, per idle
bank, for the oldest request targeting it, and for bank occupancy counts
(the Bank-Aware decision needs "how many writes are queued for this bank?").

The per-bank index is a flat list of deques indexed by bank id (banks are
small dense integers from :meth:`repro.memory.address.AddressMap.decode`),
so the controller's per-bank probes are list indexing rather than dict
hashing.  Pass ``num_banks`` to preallocate the list; without it the list
grows on demand, which keeps direct construction in tests trivial.
:meth:`RequestQueue.push` and :meth:`RequestQueue.try_pop_bank` take the
current simulated time from a caller that already has it, which spares the
clock-closure call on the controller's hot path.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

from repro.sim.sanitize import check, resolve
from repro.telemetry import NULL_TELEMETRY, Telemetry

READ = "read"
WRITE = "write"
EAGER = "eager"

_request_ids = itertools.count()


@dataclass(slots=True)
class Request:
    """One memory request as seen by the controller.

    Attributes:
        kind: READ, WRITE or EAGER.
        block: global cacheline block index.
        bank / rank / row: decoded location.
        arrival_ns: when the request entered the controller.
        callback: invoked with the completion time (reads and writes alike).
        attempts: times the request has been issued to a bank (cancellations
            re-issue, so attempts can exceed 1).
        retries: write-verify retries consumed (fault injection); each
            retry re-issues the write on the slow path from scratch.
        speed_factor: write slowdown chosen at issue time (1.0 = normal
            speed; meaningless for reads).
        progress_ns: completed programming-pulse time carried across
            attempts (write pausing).
        req_id: monotonically increasing id, for debugging and stable repr.
    """

    kind: str
    block: int
    bank: int
    rank: int
    row: int
    arrival_ns: float
    callback: Optional[Callable[[float], None]] = None
    attempts: int = 0
    retries: int = 0
    speed_factor: float = 1.0
    progress_ns: float = 0.0
    req_id: int = field(default_factory=lambda: next(_request_ids))

    @property
    def is_write(self) -> bool:
        return self.kind != READ


class RequestQueue:
    """Bounded FIFO with a per-bank view.

    When constructed with a ``clock`` callable (returning the current
    simulation time), the queue integrates its occupancy over time so the
    controller can report time-weighted average queue depth.

    With the sanitizer armed (``sanitize=True``, or ``REPRO_SANITIZE=1``
    when the argument is left at ``None``), every mutation re-verifies that
    the aggregate occupancy counter stays within ``[0, capacity]`` and
    equals the sum of the per-bank FIFO lengths - the queue-occupancy
    conservation invariant.
    """

    def __init__(self, capacity: int, name: str,
                 clock: Optional[Callable[[], float]] = None,
                 sanitize: Optional[bool] = None,
                 telemetry: Telemetry = NULL_TELEMETRY,
                 num_banks: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._fifos: List[Deque[Request]] = [deque() for _ in range(num_banks)]
        self._size = 0
        self._clock = clock
        self._occupancy_integral = 0.0
        self._last_change_ns = 0.0
        self._sanitize = resolve(sanitize)
        # Telemetry keeps a per-epoch high-water mark; the disabled path
        # costs one boolean check per push.
        self._track_peak = telemetry.enabled
        self._epoch_peak = 0

    def _check_occupancy(self) -> None:
        per_bank_total = sum(len(dq) for dq in self._fifos)
        check(
            0 <= self._size <= self.capacity, "queue-occupancy",
            f"{self.name} queue size counter out of bounds",
            queue=self.name, size=self._size, capacity=self.capacity,
        )
        check(
            per_bank_total == self._size, "queue-occupancy",
            f"{self.name} queue per-bank FIFOs disagree with the aggregate "
            "size counter",
            queue=self.name, size=self._size, per_bank_total=per_bank_total,
        )

    def _integrate(self) -> None:
        if self._clock is None:
            return
        now = self._clock()
        self._occupancy_integral += self._size * (now - self._last_change_ns)
        self._last_change_ns = now

    def average_depth(self, window_ns: float) -> float:
        """Time-weighted mean occupancy over ``window_ns``."""
        if window_ns <= 0:
            return 0.0
        self._integrate()
        return self._occupancy_integral / window_ns

    def reset_depth_statistics(self) -> None:
        if self._clock is not None:
            self._last_change_ns = self._clock()
        self._occupancy_integral = 0.0

    def __len__(self) -> int:
        return self._size

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    @property
    def empty(self) -> bool:
        return self._size == 0

    def _grow_to(self, bank: int) -> Deque[Request]:
        """Ensure the per-bank list covers ``bank``; returns its FIFO."""
        fifos = self._fifos
        while len(fifos) <= bank:
            fifos.append(deque())
        return fifos[bank]

    def push(self, request: Request,
             now: Optional[float] = None) -> None:   # simlint: hotpath
        """Append a request; raises if the queue is full.

        ``now`` is the current simulated time, when the caller has it at
        hand; otherwise the queue asks its clock.
        """
        if self._size >= self.capacity:
            raise OverflowError(f"{self.name} queue overflow")
        if self._clock is not None:
            if now is None:
                now = self._clock()
            self._occupancy_integral += self._size * (now - self._last_change_ns)
            self._last_change_ns = now
        fifos = self._fifos
        bank = request.bank
        if bank >= len(fifos):
            self._grow_to(bank)
        fifos[bank].append(request)
        self._size += 1
        if self._track_peak and self._size > self._epoch_peak:
            self._epoch_peak = self._size
        if self._sanitize:
            self._check_occupancy()

    def push_front(self, request: Request) -> None:
        """Return a cancelled request to the head of its bank's FIFO."""
        if self.full:
            raise OverflowError(f"{self.name} queue overflow")
        self._integrate()
        self._grow_to(request.bank).appendleft(request)
        self._size += 1
        if self._track_peak and self._size > self._epoch_peak:
            self._epoch_peak = self._size
        if self._sanitize:
            self._check_occupancy()

    def peek_bank(self, bank: int) -> Optional[Request]:
        """Oldest request for ``bank`` without removing it."""
        fifos = self._fifos
        if bank < len(fifos) and fifos[bank]:
            return fifos[bank][0]
        return None

    def pop_bank(self, bank: int) -> Request:
        """Remove and return the oldest request for ``bank``."""
        request = self.try_pop_bank(bank)
        if request is None:
            raise LookupError(f"no {self.name} request for bank {bank}")
        return request

    def try_pop_bank(self, bank: int, now: Optional[float] = None
                     ) -> Optional[Request]:   # simlint: hotpath
        """:meth:`pop_bank`, but None for an empty bank FIFO.

        The controller's per-bank issue loop runs this on every issue
        opportunity, passing ``now`` as :meth:`push` does; folding the
        emptiness test into the pop halves the index lookups of the
        ``count_bank``-then-``pop_bank`` idiom.
        """
        fifos = self._fifos
        if bank >= len(fifos):
            return None
        fifo = fifos[bank]
        if not fifo:
            return None
        if self._clock is not None:
            if now is None:
                now = self._clock()
            self._occupancy_integral += self._size * (now - self._last_change_ns)
            self._last_change_ns = now
        self._size -= 1
        popped = fifo.popleft()
        if self._sanitize:
            self._check_occupancy()
        return popped

    def epoch_peak_depth(self) -> int:
        """Peak occupancy since the last call (telemetry epoch probe).

        Restarts the watermark from the *current* occupancy, so a queue
        that stays full across an epoch boundary still reports full.
        """
        peak = self._epoch_peak
        self._epoch_peak = self._size
        return peak

    def count_bank(self, bank: int) -> int:
        """Number of queued requests targeting ``bank``."""
        fifos = self._fifos
        return len(fifos[bank]) if bank < len(fifos) else 0

    def banks_with_requests(self) -> List[int]:
        """Banks that currently have at least one queued request."""
        return [bank for bank, dq in enumerate(self._fifos) if dq]
