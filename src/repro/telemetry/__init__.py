"""Observability for the simulator: metrics, event traces, wear heatmaps.

Zero-overhead when disabled: components hold a :class:`Telemetry`
reference and guard every instrumentation site with
``if telemetry.enabled:``; the disabled path is the stateless
:data:`NULL_TELEMETRY` null object whose ``enabled`` is a class constant
``False``.  All timestamps are simulated time (simlint SIM008 bans wall
clocks in this package), and telemetry never influences simulation
state, so traced runs are bit-identical to untraced ones.

See ``docs/observability.md`` for the metric catalogue, the trace event
schema, and how to open exports in Perfetto.

Only the facade (:mod:`repro.telemetry.core`) and the event kinds
(:mod:`repro.telemetry.kinds`) load with the package; the metric
instruments, the tracer and the heatmap resolve on first use (PEP 562
``__getattr__``), so a run with telemetry off never imports them.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.telemetry.core import (MANIFEST_NAME, NULL_TELEMETRY,
                                  TELEMETRY_SCHEMA_VERSION, NullTelemetry,
                                  Telemetry, bundle_is_complete)
from repro.telemetry.kinds import (EV_CANCEL, EV_CELL_FAIL, EV_COMPLETE,
                                   EV_DRAIN_ENTER, EV_DRAIN_EXIT,
                                   EV_EAGER_DEMOTE, EV_ENQUEUE, EV_ISSUE,
                                   EV_LINE_RETIRE, EV_PAUSE, EV_PHASE,
                                   EV_QUOTA_TRIP, EV_UNCORRECTABLE,
                                   EV_VERIFY_RETRY, EVENT_KINDS)

if TYPE_CHECKING:
    from repro.telemetry.heatmap import WearHeatmap
    from repro.telemetry.metrics import (READ_LATENCY_BUCKETS_NS, Counter,
                                         Gauge, Histogram, MetricRegistry,
                                         bank_metric_name)
    from repro.telemetry.tracer import (EventTracer, TraceEvent,
                                        chrome_trace, chrome_trace_json)

#: Lazily resolved public name -> the submodule that defines it.
_EXPORTS = {
    "MetricRegistry": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "READ_LATENCY_BUCKETS_NS": "metrics",
    "bank_metric_name": "metrics",
    "EventTracer": "tracer",
    "TraceEvent": "tracer",
    "chrome_trace": "tracer",
    "chrome_trace_json": "tracer",
    "WearHeatmap": "heatmap",
}

__all__ = [
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY", "bundle_is_complete",
    "MANIFEST_NAME", "TELEMETRY_SCHEMA_VERSION",
    "MetricRegistry", "Counter", "Gauge", "Histogram",
    "READ_LATENCY_BUCKETS_NS", "bank_metric_name",
    "EventTracer", "TraceEvent", "chrome_trace", "chrome_trace_json",
    "EVENT_KINDS",
    "EV_ENQUEUE", "EV_ISSUE", "EV_COMPLETE", "EV_CANCEL", "EV_PAUSE",
    "EV_DRAIN_ENTER", "EV_DRAIN_EXIT", "EV_QUOTA_TRIP", "EV_EAGER_DEMOTE",
    "EV_PHASE", "EV_CELL_FAIL", "EV_VERIFY_RETRY", "EV_LINE_RETIRE",
    "EV_UNCORRECTABLE",
    "WearHeatmap",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
