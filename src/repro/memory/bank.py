"""The operation a memory bank is executing.

Every other piece of per-bank state lives in flat lists on
:class:`~repro.memory.controller.MemoryController`, which also drives
issue, completion and cancellation."""

from __future__ import annotations

from dataclasses import dataclass

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

