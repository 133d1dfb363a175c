"""Bounded ring-buffer event tracer with JSONL and Chrome trace export.

The tracer records typed, timestamped events from the memory system hot
paths: request lifecycle (enqueue / issue / complete / cancel), drain
mode transitions, Wear Quota trips, eager demotions, and phase markers.
Timestamps are **simulated** nanoseconds - never wall clock (enforced by
simlint rule SIM008).

The ring keeps the last ``capacity`` records.  ``record()`` runs
hundreds of thousands of times per simulation, so it only extends a
flat staging list by the record's seven fields.  Every
:data:`_CHUNK_RECORDS` records the staging list is sealed into a chunk
of columns, one per field, each a slice of it: ``t_ns`` and ``factor``
become ``array('d')``, ``bank``/``block``/``req_id`` a signed 32-bit
(or, if a value needs it, 64-bit) array, and ``kind``/``detail`` stay lists
of references to the few strings the simulator passes.  A sealed record
takes about 50 bytes against some 180 for a tuple and its number
objects.  Whole chunks are evicted once every record in them is older
than the last ``capacity``; the ring reads as exactly those last
``capacity`` records, and ``dropped`` counts the rest.  A numeric column
whose values are not all of the packed type (an integer ``factor``, say)
stays a list of the values as given, so every record reads back with
its exact Python types and the exports do not change by a byte.
:class:`TraceEvent` objects are materialised lazily by
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
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from operator import countOf
from struct import error as struct_error
from struct import pack
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, TypeVar)

from repro.telemetry.kinds import EV_CANCEL, EV_COMPLETE, EV_ISSUE
from repro.telemetry.metrics import MetricRegistry

#: Event kinds that open a duration slice in the Chrome export.
_SLICE_OPENERS = (EV_ISSUE,)
#: Event kinds that close the slice opened by the matching issue.
_SLICE_CLOSERS = (EV_COMPLETE, EV_CANCEL)

#: The ring's record layout (field order of :class:`TraceEvent`).
_Record = Tuple[float, str, int, int, int, float, str]

#: Records per sealed ring chunk, and records (or Chrome events)
#: serialised per export chunk: enough that per-chunk overhead vanishes,
#: few enough that one chunk's staged records or text stay a few hundred
#: KB however large the ring.
_CHUNK_RECORDS = 2048

#: Integer column typecodes: 32-bit signed, else 64-bit.
_INT_TYPECODES = "iq"

_T = TypeVar("_T")


def _batches(items: Iterator[_T]) -> Iterator[List[_T]]:
    """Consecutive lists of up to :data:`_CHUNK_RECORDS` items."""
    while True:
        batch = list(islice(items, _CHUNK_RECORDS))
        if not batch:
            return
        yield batch


class _JsonStrings(Dict[str, str]):
    """``json.dumps`` of each string, memoised: a dict whose missing keys
    encode themselves, so a repeat costs one subscript and no call.

    Event kinds, details and slice names are low-cardinality strings, and
    running ``json.dumps`` per record was the bulk of export time at full
    ring capacity; a memoising function still cost a call per record.
    """

    def __missing__(self, text: str) -> str:
        encoded = self[text] = json.dumps(text)
        return encoded


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


def _float_column(values: List[Any]) -> Sequence[Any]:
    """Doubles if every value is a float, else the values as given."""
    if countOf(map(type, values), float) == len(values):
        return array("d", pack(f"={len(values)}d", *values))
    return values


def _int_column(values: List[Any]) -> Sequence[Any]:
    """A signed 32-bit array of the values, 64-bit if one needs it, or
    the values as given if one is not an int.

    ``struct.pack`` converts a whole list several times faster than
    ``array`` does item by item.  Banks, blocks and request ids fit 32
    bits, so the first typecode nearly always holds."""
    for typecode in _INT_TYPECODES:
        try:
            return array(typecode,
                         pack(f"={len(values)}{typecode}", *values))
        except struct_error:
            pass
    return values


def _strings(values: List[Any]) -> Sequence[Any]:
    """String fields stay references to the objects the simulator
    passed: a handful of distinct strings."""
    return values


#: How a chunk packs each field, in :data:`_Record` order.
_PACKERS: Tuple[Callable[[List[Any]], Sequence[Any]], ...] = (
    _float_column, _strings, _int_column, _int_column, _int_column,
    _float_column, _strings)
#: Fields per record.
_FIELDS = len(_PACKERS)
#: Staged items that make a full chunk.
_CHUNK_ITEMS = _FIELDS * _CHUNK_RECORDS

#: A sealed chunk: one column per record field, in :data:`_Record` order.
_Chunk = Tuple[Sequence[Any], ...]


class EventTracer:
    """Fixed-capacity ring buffer of trace records."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Sealed chunks of _CHUNK_RECORDS records each, oldest first.
        self._chunks: Deque[_Chunk] = deque()
        self._evicted = 0                       # records in evicted chunks
        # The newest records, not yet sealed, flattened: record i is
        # items 7i to 7i + 6.  Flat, so staging allocates no container
        # the cyclic collector would track, and each column is a slice.
        self._staged: List[Any] = []

    @property
    def recorded(self) -> int:
        """Total ever recorded, including evicted."""
        return (self._evicted + len(self._chunks) * _CHUNK_RECORDS
                + len(self._staged) // _FIELDS)

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (derived, not tracked per call)."""
        return self.recorded - len(self)

    def record(self, t_ns: float, kind: str, bank: int = -1,
               block: int = -1, req_id: int = -1, factor: float = 0.0,
               detail: str = "") -> None:
        staged = self._staged
        staged += (t_ns, kind, bank, block, req_id, factor, detail)
        if len(staged) == _CHUNK_ITEMS:
            self._seal()

    def _seal(self) -> None:
        """Pack the staged records into a chunk; evict every chunk whose
        records are all older than the last ``capacity``."""
        staged, chunks = self._staged, self._chunks
        chunks.append(tuple(pack(staged[field::_FIELDS])
                            for field, pack in enumerate(_PACKERS)))
        staged.clear()
        while (len(chunks) - 1) * _CHUNK_RECORDS >= self.capacity:
            chunks.popleft()
            self._evicted += _CHUNK_RECORDS

    def load(self, recorded: int, records: Iterable[_Record]) -> None:
        """Replace the ring with ``records``, oldest first: the last
        ``min(recorded, capacity)`` of ``recorded`` events."""
        self._chunks.clear()
        self._staged.clear()
        self._evicted = 0
        for record in records:
            self.record(*record)
        held = self.recorded
        if self._evicted or held != min(recorded, self.capacity):
            raise ValueError(
                f"trace ring holds {held} records, expected the last "
                f"{min(recorded, self.capacity)} of {recorded}")
        self._evicted = recorded - held

    @property
    def _stale(self) -> int:
        """Records held that are older than the last ``capacity``: the
        head of the oldest chunk, or of the staged records."""
        return self.recorded - self._evicted - len(self)

    def _records(self) -> Iterator[_Record]:
        """The ring's records, oldest first."""
        return islice(chain(
            chain.from_iterable(zip(*chunk) for chunk in self._chunks),
            zip(*[iter(self._staged)] * _FIELDS)), self._stale, None)

    def column(self, field: int) -> Sequence[Any]:
        """Field ``field`` (an index into :class:`TraceEvent`'s fields)
        of every ring record, oldest first: one array, in the widest
        typecode any chunk used, if the field packs in every chunk (the
        staged records included), else a list."""
        parts = [chunk[field] for chunk in self._chunks]
        parts.append(_PACKERS[field](self._staged[field::_FIELDS]))
        if not all(isinstance(part, array) for part in parts):
            return list(islice(chain.from_iterable(parts), self._stale, None))
        typecode = max(parts, key=lambda part: part.itemsize).typecode
        column = array(typecode)
        for part in parts:
            column.extend(part if part.typecode == typecode
                          else array(typecode, part))
        del column[:self._stale]
        return column

    def events(self) -> List[TraceEvent]:
        """Current ring contents as :class:`TraceEvent`, oldest first."""
        return [TraceEvent(*record) for record in self._records()]

    def jsonl_chunks(self) -> Iterator[str]:
        """The JSONL export in chunks: one compact JSON object per event,
        each line newline-terminated, oldest first."""
        enc = _JsonStrings()
        for batch in _batches(self._records()):
            yield "".join([
                f'{{"t_ns":{t_ns},"kind":{enc[kind]},"bank":{bank},'
                f'"block":{block},"req_id":{req_id},"factor":{factor},'
                f'"detail":{enc[detail]}}}\n'
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
    enc = _JsonStrings()

    yield (f'{{"name":"process_name","ph":"M","pid":1,"tid":0,'
           f'"args":{{"name":{enc[process_name]}}}}}')
    for bank in sorted({bank for bank in tracer.column(2) if bank >= 0}):
        yield (f'{{"name":"thread_name","ph":"M","pid":1,"tid":{bank + 1},'
               f'"args":{{"name":"bank {bank}"}}}}')
    yield ('{"name":"thread_name","ph":"M","pid":1,"tid":0,'
           '"args":{"name":"system"}}')

    # Pair issue -> complete/cancel per (bank, req_id) into "X" slices.
    open_issues: Dict[Tuple[int, int], _Record] = {}
    # A slice's encoded name per (issue detail, factor, outcome): a few
    # distinct names, each formatted once (equal factors format alike).
    slice_names: Dict[Tuple[str, Any, str], str] = {}
    for record in tracer._records():
        t_ns, kind, bank, block, req_id, factor, detail = record
        tid = bank + 1 if bank >= 0 else 0
        if kind in _SLICE_OPENERS:
            open_issues[(bank, req_id)] = record
            continue
        if kind in _SLICE_CLOSERS:
            opener = open_issues.pop((bank, req_id), None)
            if opener is not None:
                open_t, _, _, open_block, _, open_factor, open_detail = opener
                key = (open_detail, open_factor, kind)
                name_json = slice_names.get(key)
                if name_json is None:
                    name = open_detail or "op"
                    if open_factor > 1.0:
                        name = f"{name} x{open_factor:g}"
                    if kind == EV_CANCEL:
                        name = f"{name} (cancelled)"
                    name_json = slice_names[key] = enc[name]
                yield (f'{{"name":{name_json},"ph":"X","pid":1,"tid":{tid},'
                       f'"ts":{open_t / 1e3!r},"dur":{(t_ns - open_t) / 1e3!r},'
                       f'"args":{{"block":{open_block},"req_id":{req_id},'
                       f'"factor":{open_factor!r},"outcome":{enc[kind]}}}}}')
                continue
            # Closer whose opener was evicted from the ring: keep it as
            # an instant so the record is not lost entirely.
        name = f"{kind} {detail}" if detail else kind
        yield (f'{{"name":{enc[name]},"ph":"i","pid":1,"tid":{tid},'
               f'"ts":{t_ns / 1e3!r},"s":"t",'
               f'"args":{{"block":{block},"req_id":{req_id},'
               f'"factor":{factor!r}}}}}')

    # Issues still open at the end of the ring: emit as instants.
    for opener in open_issues.values():
        t_ns, _, bank, block, req_id, factor, detail = opener
        tid = bank + 1 if bank >= 0 else 0
        yield (f'{{"name":{enc[f"issue {detail}".rstrip()]},"ph":"i",'
               f'"pid":1,"tid":{tid},"ts":{t_ns / 1e3!r},"s":"t",'
               f'"args":{{"block":{block},"req_id":{req_id},'
               f'"factor":{factor!r}}}}}')

    if metrics is not None:
        for name, column in sorted(metrics.series.items()):
            if not _counter_track_name(name):
                continue
            name_json = enc[name]
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
