"""Per-bank state: row buffer, busy tracking, in-flight operation.

The state machine that drives it (issue, completion, cancellation) is
:class:`~repro.memory.controller.MemoryController`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.queues import Request


@dataclass(slots=True)
class InFlight:
    """The operation a bank is currently executing.

    Attributes:
        request: the queued request being serviced.
        start_ns: simulated time the bank became busy with it.
        finish_ns: simulated time the bank frees up.
        pulse_start_ns: when cell stress begins (after the data burst);
            cancellation before this point wears nothing.
        cancellable: whether an arriving read may abort this operation.
        resumed_progress_ns: pulse time already completed in prior
            attempts (write pausing, the +WP policies).
    """

    request: Request
    start_ns: float
    finish_ns: float
    pulse_start_ns: float
    cancellable: bool
    resumed_progress_ns: float = 0.0


class Bank:
    """One memory bank with an open-page 1 KB row buffer.

    Writes are write-through: they never load the row buffer, and a write to
    the currently open row leaves the buffer open (the device updates it in
    place).  Reads open rows.

    Inside :class:`~repro.memory.controller.MemoryController` the three
    scheduling-hot fields (``busy_until``, ``open_row``, ``in_flight``)
    live in flat lists indexed by bank id, so the issue path reads
    primitives instead of walking Bank objects; :meth:`apply_hot_state`
    copies them here at the controller's sync points (end of warmup, end
    of run, snapshot capture).  The cold counters (``busy_time_ns``,
    ``ops_begun``, ``ops_cancelled``, ``lines_retired``) are kept *here*
    live - telemetry probes read them every epoch.
    """

    __slots__ = ("index", "open_row", "busy_until", "in_flight",
                 "busy_time_ns", "ops_begun", "ops_cancelled",
                 "lines_retired")

    def __init__(self, index: int) -> None:
        self.index = index
        self.open_row: Optional[int] = None
        self.busy_until: float = 0.0
        self.in_flight: Optional[InFlight] = None
        self.busy_time_ns: float = 0.0   # accumulated for utilization stats
        # Lifetime operation tallies; exported per-bank by telemetry probes
        # and cheap enough (one integer add) to keep unconditionally.
        self.ops_begun = 0
        self.ops_cancelled = 0
        # Lines this bank has retired into its spare region (fault
        # injection); stays 0 when the subsystem is disabled.
        self.lines_retired = 0

    def apply_hot_state(self, busy_until: float, open_row: Optional[int],
                        in_flight: Optional[InFlight]) -> None:
        """Adopt the controller's flat-list state for this bank.

        Called at sync points only (never per event): RunResult
        collection, warmup reset and snapshot capture.
        """
        self.busy_until = busy_until
        self.open_row = open_row
        self.in_flight = in_flight
