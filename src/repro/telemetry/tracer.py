"""Bounded ring-buffer event tracer with JSONL and Chrome trace export.

The tracer records typed, timestamped events from the memory system hot
paths: request lifecycle (enqueue / issue / complete / cancel), drain
mode transitions, Wear Quota trips, eager demotions, and phase markers.
Timestamps are **simulated** nanoseconds - never wall clock (enforced by
simlint rule SIM008).

The buffer is a ``collections.deque(maxlen=capacity)`` of plain tuples:
when full, the oldest events are silently evicted and only ``dropped``
is bumped, so a long run costs O(capacity) memory no matter how many
events fire.  Tuples (not :class:`TraceEvent` instances) live in the
ring because ``record()`` runs hundreds of thousands of times per
simulation and per-event object allocation dominated the enabled-path
overhead; :class:`TraceEvent` objects are materialised lazily by
:meth:`EventTracer.events`.

Two export formats:

* :meth:`EventTracer.to_jsonl` - one JSON object per line, the raw record
  stream for ad-hoc analysis;
* :func:`chrome_trace` - the Chrome ``trace_event`` JSON-object format
  (https://ui.perfetto.dev opens it directly).  Issue/complete pairs
  become duration ("X") slices on a per-bank track, point events become
  instants ("i"), and sampled metric series become counter ("C") tracks.

Each format has one serialiser, a generator of text chunks covering at
most :data:`_CHUNK_RECORDS` records each (:meth:`EventTracer.jsonl_chunks`,
:func:`chrome_trace_chunks`).  ``Telemetry.write`` streams the chunks to
disk, so exporting a full ring holds one chunk of text at a time rather
than the whole file; the string exports join the same chunks.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Tuple, TypeVar)

from repro.telemetry.metrics import MetricRegistry

# Event kinds.  Kept as plain string constants (not an Enum) so hot-path
# record() calls avoid Enum attribute overhead and exports stay readable.
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

#: Event kinds that open a duration slice in the Chrome export.
_SLICE_OPENERS = (EV_ISSUE,)
#: Event kinds that close the slice opened by the matching issue.
_SLICE_CLOSERS = (EV_COMPLETE, EV_CANCEL)

#: The ring's internal record layout (field order of :class:`TraceEvent`).
_Record = Tuple[float, str, int, int, int, float, str]

#: Records (or Chrome events) serialised per export chunk: enough that
#: per-chunk overhead vanishes, few enough that one chunk's text stays a
#: few hundred KB however large the ring.
_CHUNK_RECORDS = 2048

_T = TypeVar("_T")


def _batches(items: Iterator[_T]) -> Iterator[List[_T]]:
    """Consecutive lists of up to :data:`_CHUNK_RECORDS` items."""
    while True:
        batch = list(islice(items, _CHUNK_RECORDS))
        if not batch:
            return
        yield batch


def _string_encoder() -> Callable[[str], str]:
    """``json.dumps`` for strings, memoised.

    Event kinds, details and slice names are low-cardinality strings, and
    running ``json.dumps`` per record was the bulk of export time at full
    ring capacity.
    """
    encoded: Dict[str, str] = {}

    def enc(text: str) -> str:
        cached = encoded.get(text)
        if cached is None:
            cached = encoded[text] = json.dumps(text)
        return cached

    return enc


@dataclass
class TraceEvent:
    """One typed trace record with a simulated-time stamp.

    ``t_ns``
        Simulated time of the event, nanoseconds.
    ``kind``
        One of the ``EV_*`` constants.
    ``bank`` / ``block`` / ``req_id``
        Identify where and which request; ``-1`` when not applicable.
    ``factor``
        Write slowdown factor in effect (1.0 = fast), 0.0 for reads and
        non-issue events.
    ``detail``
        Free-form short annotation ("read", "write", "eager", reason
        strings, phase names).
    """

    t_ns: float
    kind: str
    bank: int = -1
    block: int = -1
    req_id: int = -1
    factor: float = 0.0
    detail: str = ""


class EventTracer:
    """Fixed-capacity ring buffer of trace records."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: Deque[_Record] = deque(maxlen=capacity)
        self.recorded = 0  # total ever recorded, including evicted

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (derived, not tracked per call)."""
        return self.recorded - len(self._ring)

    def record(self, t_ns: float, kind: str, bank: int = -1,
               block: int = -1, req_id: int = -1, factor: float = 0.0,
               detail: str = "") -> None:
        # The deque's maxlen does the eviction; nothing else to maintain.
        self.recorded += 1
        self._ring.append((t_ns, kind, bank, block, req_id, factor, detail))

    def events(self) -> List[TraceEvent]:
        """Current ring contents as :class:`TraceEvent`, oldest first."""
        return [TraceEvent(*record) for record in self._ring]

    def jsonl_chunks(self) -> Iterator[str]:
        """The JSONL export in chunks: one compact JSON object per event,
        each line newline-terminated, oldest first."""
        enc = _string_encoder()
        for batch in _batches(iter(self._ring)):
            yield "".join([
                f'{{"t_ns":{t_ns},"kind":{enc(kind)},"bank":{bank},'
                f'"block":{block},"req_id":{req_id},"factor":{factor},'
                f'"detail":{enc(detail)}}}\n'
                for t_ns, kind, bank, block, req_id, factor, detail in batch
            ])

    def to_jsonl(self) -> str:
        """The whole JSONL export as one string ("" for an empty ring)."""
        return "".join(self.jsonl_chunks())


def _counter_track_name(series_name: str) -> bool:
    """Series worth a Perfetto counter track (per-sample, low fan-out)."""
    return not series_name.startswith("hist.")


def _chrome_events(tracer: EventTracer,
                   metrics: Optional[MetricRegistry],
                   process_name: str) -> Iterator[str]:
    """Each event of the Chrome document as compact JSON, in order.

    Layout: one fake process, one thread ("track") per bank plus track 0
    for bank-less events.  Timestamps are microseconds as the format
    requires; simulated ns divide by 1e3 exactly, no host clock involved.
    Issue/complete pairs become duration ("X") slices, point events
    instants ("i"), sampled metric series counter ("C") tracks.

    Emits f-string fragments with memoised string encoding instead of
    building one dict per ring record for a generic ``json.dumps`` pass:
    at full ring capacity the dict-then-dumps route dominated bundle
    write time and pushed the enabled-telemetry overhead past its gate.
    Numbers go through ``repr``, which matches ``json.dumps`` exactly
    for the ints and finite floats that reach this point.
    """
    ring = tracer._ring
    enc = _string_encoder()

    yield (f'{{"name":"process_name","ph":"M","pid":1,"tid":0,'
           f'"args":{{"name":{enc(process_name)}}}}}')
    for bank in sorted({record[2] for record in ring if record[2] >= 0}):
        yield (f'{{"name":"thread_name","ph":"M","pid":1,"tid":{bank + 1},'
               f'"args":{{"name":"bank {bank}"}}}}')
    yield ('{"name":"thread_name","ph":"M","pid":1,"tid":0,'
           '"args":{"name":"system"}}')

    # Pair issue -> complete/cancel per (bank, req_id) into "X" slices.
    open_issues: Dict[Tuple[int, int], _Record] = {}
    for record in ring:
        t_ns, kind, bank, block, req_id, factor, detail = record
        tid = bank + 1 if bank >= 0 else 0
        if kind in _SLICE_OPENERS:
            open_issues[(bank, req_id)] = record
            continue
        if kind in _SLICE_CLOSERS:
            opener = open_issues.pop((bank, req_id), None)
            if opener is not None:
                open_t, _, _, open_block, _, open_factor, open_detail = opener
                name = open_detail or "op"
                if open_factor > 1.0:
                    name = f"{name} x{open_factor:g}"
                if kind == EV_CANCEL:
                    name = f"{name} (cancelled)"
                yield (f'{{"name":{enc(name)},"ph":"X","pid":1,"tid":{tid},'
                       f'"ts":{open_t / 1e3!r},"dur":{(t_ns - open_t) / 1e3!r},'
                       f'"args":{{"block":{open_block},"req_id":{req_id},'
                       f'"factor":{open_factor!r},"outcome":{enc(kind)}}}}}')
                continue
            # Closer whose opener was evicted from the ring: keep it as
            # an instant so the record is not lost entirely.
        name = f"{kind} {detail}" if detail else kind
        yield (f'{{"name":{enc(name)},"ph":"i","pid":1,"tid":{tid},'
               f'"ts":{t_ns / 1e3!r},"s":"t",'
               f'"args":{{"block":{block},"req_id":{req_id},'
               f'"factor":{factor!r}}}}}')

    # Issues still open at the end of the ring: emit as instants.
    for opener in open_issues.values():
        t_ns, _, bank, block, req_id, factor, detail = opener
        tid = bank + 1 if bank >= 0 else 0
        yield (f'{{"name":{enc(f"issue {detail}".rstrip())},"ph":"i",'
               f'"pid":1,"tid":{tid},"ts":{t_ns / 1e3!r},"s":"t",'
               f'"args":{{"block":{block},"req_id":{req_id},'
               f'"factor":{factor!r}}}}}')

    if metrics is not None:
        for name, column in sorted(metrics.series.items()):
            if not _counter_track_name(name):
                continue
            name_json = enc(name)
            for t_ns, value in zip(metrics.sample_times_ns, column):
                if value is None:
                    continue
                yield (f'{{"name":{name_json},"ph":"C","pid":1,"tid":0,'
                       f'"ts":{t_ns / 1e3!r},"args":{{"value":{value!r}}}}}')


def chrome_trace_chunks(tracer: EventTracer,
                        metrics: Optional[MetricRegistry] = None,
                        process_name: str = "repro-sim") -> Iterator[str]:
    """The Chrome ``trace_event`` document as compact JSON text, in
    chunks of up to :data:`_CHUNK_RECORDS` events (what
    ``Telemetry.write`` streams into ``trace.chrome.json``)."""
    events = _chrome_events(tracer, metrics, process_name)
    # The process-name record always comes first, so every later event
    # is comma-prefixed.
    yield '{"traceEvents":[' + next(events)
    for batch in _batches(events):
        yield "," + ",".join(batch)
    yield '],"displayTimeUnit":"ns"}'


def chrome_trace_json(tracer: EventTracer,
                      metrics: Optional[MetricRegistry] = None,
                      process_name: str = "repro-sim") -> str:
    """The whole Chrome trace document as one string."""
    return "".join(chrome_trace_chunks(tracer, metrics, process_name))


def chrome_trace(tracer: EventTracer,
                 metrics: Optional[MetricRegistry] = None,
                 process_name: str = "repro-sim") -> Dict[str, Any]:
    """The Chrome trace document as a Python object.

    Thin wrapper parsing :func:`chrome_trace_json`, so the dict and text
    exports cannot drift apart.
    """
    document: Dict[str, Any] = json.loads(
        chrome_trace_json(tracer, metrics, process_name))
    return document
