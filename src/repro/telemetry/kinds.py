"""Trace event kinds: the ``kind`` of every event-tracer record.

Kept as plain string constants (not an Enum) so hot-path ``record()``
calls avoid Enum attribute overhead and exports stay readable.  They
live apart from :mod:`repro.telemetry.tracer` so instrumented
components can name them without importing the tracer, which a run with
telemetry off never builds.
"""

from typing import Tuple

EV_ENQUEUE = "enqueue"
EV_ISSUE = "issue"
EV_COMPLETE = "complete"
EV_CANCEL = "cancel"
EV_PAUSE = "pause"
EV_DRAIN_ENTER = "drain_enter"
EV_DRAIN_EXIT = "drain_exit"
EV_QUOTA_TRIP = "quota_trip"
EV_EAGER_DEMOTE = "eager_demote"
EV_PHASE = "phase"
# Fault injection (repro.faults): cell death, write-verify retry, line
# retirement into the spare region, and the uncorrectable terminal state.
EV_CELL_FAIL = "cell_fail"
EV_VERIFY_RETRY = "verify_retry"
EV_LINE_RETIRE = "line_retire"
EV_UNCORRECTABLE = "uncorrectable"

EVENT_KINDS: Tuple[str, ...] = (
    EV_ENQUEUE, EV_ISSUE, EV_COMPLETE, EV_CANCEL, EV_PAUSE,
    EV_DRAIN_ENTER, EV_DRAIN_EXIT, EV_QUOTA_TRIP, EV_EAGER_DEMOTE,
    EV_PHASE, EV_CELL_FAIL, EV_VERIFY_RETRY, EV_LINE_RETIRE,
    EV_UNCORRECTABLE,
)
