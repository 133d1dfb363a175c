"""Full simulator state <-> plain dict, bit-identical on resume.

The codec walks a paused :class:`repro.sim.system.System` and produces a
plain dict (strings, numbers, bools, lists, dicts, ``None`` and
``array.array`` columns) capturing *everything* the rest of the run
depends on: the event queue with its reserved sequence numbers,
controller/bank/queue state with the in-flight columns and issue
tokens, LLC contents and LRU order, wear
accounting (flushed before capture), fault-injector per-line endurance
state, every RNG stream, the telemetry epoch alignment, and the core's
architectural state.

Two representation rules keep restores bit-identical:

* **Request table.**  Each :class:`~repro.memory.queues.Request` -
  queued in a FIFO or in flight in a bank slot - is serialized once
  under a table index, and the FIFOs and bank slots store the index.
  Completion events carry the controller's integer issue tokens, not
  requests, and are stored as they are: a stale completion stays stale
  because its token differs from its bank's.
* **Descriptors, not pickles.**  Every scheduled event is a bound method
  of a live simulator object plus one argument, and every request
  callback is a bound method of the core.  Each is encoded as a symbolic
  descriptor (``["ctrl.read", token]``) through one method table and
  rebound through its inverse against the restored system, so a
  restored system can itself be captured again byte-identically
  (double round-trip idempotence).  A callback outside the tables
  cannot be captured.

Dicts with insertion-order-dependent semantics (per-factor wear tallies,
the DRAM buffer's LRU order) are serialized as pair lists so JSON
round-trips preserve their order exactly.  The bulk of a snapshot - the
LLC's per-line state, the fault injector's lazily touched lines in
first-touch order, the trace ring's records and every RNG's Mersenne
Twister words - is stored as flat columns: ``array.array`` objects that
:mod:`.snapshot` writes as packed bytes beside the JSON.  An integer
column takes the narrowest of ``B/H/I/Q`` that holds its maximum
(:func:`pack_ints`), a float column ``d`` (:func:`pack_floats`); the
ring's columns are transformed first so they compress (see
:func:`_capture_ring`).  Every other value stays JSON.  Restore accepts
a column as an array or a list.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
from array import array
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple, TypeGuard, TypeVar)

from repro.cache.lru import LRUCache
from repro.cpu.trace import TraceRecord
from repro.memory.queues import Request, RequestQueue
from repro.telemetry.tracer import EventTracer, TraceEvent
from repro.workloads.patterns import (Pattern, PhasedPattern,
                                      ReadModifyWrite, SequentialStream)

from .errors import CheckpointError, CheckpointUnsupportedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.system import System

#: Version of the *state* layout below (the file envelope has its own).
STATE_SCHEMA_VERSION = 8

#: Integer column typecodes, narrowest first.
_INT_TYPECODES = "BHIQ"
#: Every typecode a column may have.
COLUMN_TYPECODES = frozenset("BHIQd")

_CTRL_STATS_FIELDS: Tuple[str, ...] = (
    "reads_from_llc", "writes_from_llc", "eager_from_llc", "reads_issued",
    "read_row_hits", "read_row_misses", "writes_issued_normal",
    "writes_issued_slow", "eager_issued", "writes_completed",
    "reads_completed", "cancellations", "pauses", "drain_events",
    "drain_time_ns", "read_latency_sum_ns",
)
_LLC_STATS_FIELDS: Tuple[str, ...] = (
    "accesses", "hits", "misses", "writebacks", "eager_writebacks",
    "wasted_eager",
)
_FAULT_STATS_FIELDS: Tuple[str, ...] = (
    "cells_failed", "write_retries", "corrected_writes", "lines_retired",
    "uncorrectable", "first_failure_ns", "uncorrectable_ns",
)
_DRAM_STATS_FIELDS: Tuple[str, ...] = (
    "writebacks_in", "coalesced", "drains_out",
)
_SYSTEM_FIELDS: Tuple[str, ...] = (
    "_measure_start_ns", "_measure_end_ns", "_accesses_at_last_scan", "_done",
)
_CTRL_FIELDS: Tuple[str, ...] = (
    "bus_free_ns", "drain_mode", "_drain_started_ns", "_wear_write_tally",
    "_wear_write_baseline",
)
_QUEUE_FIELDS: Tuple[str, ...] = (
    "_size", "_occupancy_integral", "_last_change_ns", "_epoch_peak",
)
_PROFILER_FIELDS: Tuple[str, ...] = (
    "miss_counter", "eager_position", "samples_taken",
)
_DEADBLOCK_FIELDS: Tuple[str, ...] = ("total_reuses", "samples_taken")
_REMAPPER_FIELDS: Tuple[str, ...] = (
    "gap", "start", "_writes_since_move", "total_writes", "gap_moves",
)
_QUOTA_FIELDS: Tuple[str, ...] = ("previous_periods", "slow_only_periods")
_FLIP_FIELDS: Tuple[str, ...] = ("lines_written", "bits_written")
_CORE_FIELDS: Tuple[str, ...] = (
    "instructions_retired", "accesses_processed", "outstanding_reads",
    "stall_time_ns", "_next_read_id", "_wait_read_id", "_waiting_mlp",
    "_waiting_write_space", "_waiting_read_space", "_wait_since",
    "_pending_writeback", "_finished",
)


_T = TypeVar("_T")


def pack_ints(values: Iterable[int], name: str) -> array[int]:
    """``values`` as an array of the narrowest unsigned typecode that
    holds their maximum; a value outside ``[0, 2**64)`` raises
    :class:`CheckpointError` instead of being truncated.

    Each typecode is tried narrowest first: converting stops at the
    first value that does not fit, which is cheaper than a separate pass
    for the maximum, and ``bytes`` packs a ``B`` column faster than
    ``array`` does."""
    column = list(values)
    for typecode in _INT_TYPECODES:
        try:
            return array(typecode,
                         bytes(column) if typecode == "B" else column)
        except (OverflowError, ValueError):
            pass
        except TypeError as error:
            raise CheckpointError(
                f"column {name!r} cannot be packed: {error}") from None
    raise CheckpointError(
        f"column {name!r} holds a value outside [0, 2**64)")


def pack_floats(values: Iterable[float], name: str) -> array[float]:
    """``values`` as an array of doubles."""
    try:
        return array("d", values)
    except TypeError as error:
        raise CheckpointError(
            f"column {name!r} cannot be packed: {error}") from None


def _sized(values: Sequence[_T], expected: int, name: str) -> Sequence[_T]:
    """``values``, which must hold ``expected`` entries: every column
    restored in place or zipped against a live one goes through here."""
    if len(values) != expected:
        raise ValueError(
            f"{name} has {len(values)} entries, expected {expected}")
    return values


def _fields_to_dict(obj: Any, fields: Sequence[str]) -> Dict[str, Any]:
    return {name: getattr(obj, name) for name in fields}


def _fields_from_dict(obj: Any, fields: Sequence[str],
                      data: Dict[str, Any]) -> None:
    for name in fields:
        setattr(obj, name, data[name])


def _present(live: Optional[_T], state: Any, what: str) -> TypeGuard[_T]:
    """Whether an optional component is on; snapshot and config agree."""
    if (live is None) != (state is None):
        raise CheckpointError(
            f"snapshot and config disagree about {what} state")
    return live is not None


def _rng_state(rng: random.Random) -> Dict[str, Any]:
    """An RNG's ``getstate()``: its 625 Mersenne Twister words as a
    column, the version and the cached Gaussian as JSON."""
    version, internal, gauss_next = rng.getstate()
    return {"version": version, "internal": pack_ints(internal, "internal"),
            "gauss_next": gauss_next}


def _restore_rng(rng: random.Random, state: Dict[str, Any]) -> None:
    rng.setstate((state["version"], tuple(state["internal"]),
                  state["gauss_next"]))


def _trace_record_row(record: Optional[TraceRecord]) -> Optional[List[Any]]:
    return None if record is None else [
        record.gap_insts, record.block, bool(record.is_write),
        bool(record.dependent)]


def _trace_record_from_row(row: Any) -> Optional[TraceRecord]:
    return (None if row is None else
            TraceRecord(row[0], row[1], bool(row[2]), bool(row[3])))


#: The mutable draw-state attributes of each stateful pattern class.
_PATTERN_FIELDS: Dict[type, Tuple[str, ...]] = {
    SequentialStream: ("_cursor",),
    ReadModifyWrite: ("_pending_write",),
    PhasedPattern: ("_served", "_in_second"),
}


def _pattern_state(pattern: Pattern) -> Dict[str, Any]:
    """The mutable draw-state of one access pattern (recursive)."""
    state = _fields_to_dict(pattern, _PATTERN_FIELDS.get(type(pattern), ()))
    if isinstance(pattern, PhasedPattern):
        state["first"] = _pattern_state(pattern.first)
        state["second"] = _pattern_state(pattern.second)
    return state


def _restore_pattern(pattern: Pattern, state: Dict[str, Any]) -> None:
    _fields_from_dict(pattern, _PATTERN_FIELDS.get(type(pattern), ()), state)
    if isinstance(pattern, PhasedPattern):
        _restore_pattern(pattern.first, state["first"])
        _restore_pattern(pattern.second, state["second"])


#: The only methods the simulator schedules.  A system or core event is
#: the row ``[owner, method name]``; a controller event is ``[kind, arg]``
#: under its kind: ``["ctrl.poke", bank]`` or ``[kind, token]``, with
#: ``token`` the issue token the completion carries.
_OWNER_EVENTS: Dict[str, Tuple[str, ...]] = {
    "system": ("_sample_tick", "_eager_tick"),
    "core": ("_start_event", "_gap_fired"),
}
_CTRL_EVENTS: Dict[str, str] = {
    "ctrl.poke": "_try_issue_bank",
    "ctrl.read": "_complete_read",
    "ctrl.write": "_complete_write",
}
_CTRL_EVENT_KINDS = {name: kind for kind, name in _CTRL_EVENTS.items()}


def _bound_name(fn: Any, owner: Any) -> str:
    """The method name of ``fn`` if it is bound to ``owner``, else ''."""
    if getattr(fn, "__self__", None) is not owner:
        return ""
    return getattr(fn, "__name__", "")


class _Capture:
    """One capture pass: the request table plus callback encoding."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self._request_index: Dict[int, int] = {}
        self.request_rows: List[List[Any]] = []

    def request_ref(self, request: Request) -> int:
        serial = self._request_index.get(id(request))
        if serial is None:
            serial = self._request_index[id(request)] = len(self.request_rows)
            self.request_rows.append([
                request.kind, request.block, request.bank, request.rank,
                request.row, request.arrival_ns,
                self._encode_request_callback(request.callback),
                request.attempts, request.retries, request.speed_factor,
                request.progress_ns, request.req_id,
            ])
        return serial

    def _encode_request_callback(
            self, callback: Optional[Callable[[float], None]]
    ) -> Optional[List[Any]]:
        if callback is None:
            return None
        core = self.system.core
        name = _bound_name(callback, core)
        if name == "_read_done_plain":
            return ["plain"]
        if name == "_read_done_dependent":
            return ["dep", core._wait_read_id]
        raise CheckpointUnsupportedError(
            f"unsupported request callback {callback!r}")

    def encode_waiter(self, waiter: Callable[[], None]) -> str:
        name = _bound_name(waiter, self.system.core)
        if name in ("_write_space_ready", "_read_space_ready"):
            return name
        raise CheckpointUnsupportedError(
            f"unsupported space waiter {waiter!r}")

    def encode_event(self, fn: Callable[[Any], None], arg: Any) -> List[Any]:
        system = self.system
        kind = _CTRL_EVENT_KINDS.get(_bound_name(fn, system.controller))
        if kind is not None:
            return [kind, arg]
        for owner_kind, owner in (("system", system), ("core", system.core)):
            name = _bound_name(fn, owner)
            if name in _OWNER_EVENTS[owner_kind] and arg is None:
                return [owner_kind, name]
        raise CheckpointUnsupportedError(
            f"unsupported event callback {fn!r} (argument {arg!r})")


class _Restore:
    """One restore pass: the rebuilt request table plus callback decoding."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.requests: List[Request] = []
        # The issue tokens the controller's completion events carry.
        self.completion_tokens: List[int] = []
        # The read ids of the "dep" request rows (at most one is valid).
        self.dependent_read_ids: List[Any] = []

    def decode_event(self, desc: Sequence[Any]
                     ) -> Tuple[Callable[[Any], None], Any]:
        kind = desc[0]
        system = self.system
        if kind in _CTRL_EVENTS:
            arg = desc[1]
            if type(arg) is not int or arg < 0:
                raise CheckpointError(
                    f"event {desc!r} carries no bank or issue token")
            if kind != "ctrl.poke":
                self.completion_tokens.append(arg)
            return getattr(system.controller, _CTRL_EVENTS[kind]), arg
        if kind in _OWNER_EVENTS and desc[1] in _OWNER_EVENTS[kind]:
            owner = system if kind == "system" else system.core
            return getattr(owner, desc[1]), None
        raise CheckpointError(f"unknown event descriptor {desc!r}")


# Request rows list the dataclass fields in declaration order.

def _restore_requests(restore: _Restore, rows: List[List[Any]]) -> None:
    core = restore.system.core
    for row in rows:
        desc = row[6]
        if desc is None:
            callback = None
        elif desc[0] == "plain":
            callback = core._read_done_plain
        else:
            callback = core._read_done_dependent
            restore.dependent_read_ids.append(desc[1])
        restore.requests.append(Request(*row[:6] + [callback] + row[7:]))


def _capture_queue(capture: _Capture, queue: RequestQueue) -> Dict[str, Any]:
    return {
        "fifos": [[capture.request_ref(req) for req in fifo]
                  for fifo in queue._fifos],
        **_fields_to_dict(queue, _QUEUE_FIELDS),
    }


def _restore_queue(restore: _Restore, queue: RequestQueue,
                   state: Dict[str, Any]) -> None:
    for bank, refs in enumerate(state["fifos"]):
        fifo = queue._grow_to(bank)
        fifo.clear()
        fifo.extend(restore.requests[ref] for ref in refs)
    _fields_from_dict(queue, _QUEUE_FIELDS, state)


def _capture_trace(system: "System") -> Dict[str, Any]:
    trace = system._trace
    rng = getattr(trace, "rng", None)
    patterns = getattr(trace, "patterns", None)
    if rng is None or patterns is None:
        raise CheckpointUnsupportedError(
            f"workload {system.config.workload!r} uses a trace without "
            "checkpointable state (workload mixes are generator-backed "
            "and cannot be checkpointed; use a single profile)")
    return {
        "rng": _rng_state(rng),
        "patterns": [_pattern_state(p) for p in patterns],
    }


def _restore_trace(restore: _Restore, state: Dict[str, Any]) -> None:
    trace = restore.system._trace
    rng = getattr(trace, "rng", None)
    patterns = getattr(trace, "patterns", None)
    if len(patterns) != len(state["patterns"]):
        raise CheckpointError(
            f"trace pattern count changed: snapshot has "
            f"{len(state['patterns'])}, live trace has {len(patterns)}")
    _restore_rng(rng, state["rng"])
    for pattern, pattern_state in zip(patterns, state["patterns"]):
        _restore_pattern(pattern, pattern_state)


def _capture_llc(system: "System") -> Dict[str, Any]:
    llc = system.llc
    lru = llc.cache
    deadblock = llc.deadblock
    age = deadblock.age_threshold
    return {
        "stats": _fields_to_dict(llc.stats, _LLC_STATS_FIELDS),
        "rng": _rng_state(llc.rng),
        # The cache's own columns flattened, sets in order, each
        # MRU-first; flags packs dirty | eager_cleaned << 1.
        "lines_per_set": pack_ints(map(len, lru._tag_sets), "lines_per_set"),
        "tags": pack_ints(itertools.chain.from_iterable(lru._tag_sets),
                          "tags"),
        "flags": pack_ints(itertools.chain.from_iterable(lru._flags),
                           "flags"),
        "last_touch": pack_ints(itertools.chain.from_iterable(lru._touches),
                                "last_touch"),
        "set_access_counts": pack_ints(lru.set_access_counts,
                                       "set_access_counts"),
        "profiler": {
            "hit_counters": list(llc.profiler.hit_counters),
            **_fields_to_dict(llc.profiler, _PROFILER_FIELDS),
        },
        "deadblock": {
            "buckets": list(deadblock.buckets),
            **_fields_to_dict(deadblock, _DEADBLOCK_FIELDS),
            # float("inf") is not valid strict JSON; None encodes it.
            "age_threshold": None if age == float("inf") else age,
        },
    }


def _restore_llc(restore: _Restore, state: Dict[str, Any]) -> None:
    llc = restore.system.llc
    lru: LRUCache = llc.cache
    _fields_from_dict(llc.stats, _LLC_STATS_FIELDS, state["stats"])
    _restore_rng(llc.rng, state["rng"])
    sizes, tags, flags, touches = (
        list(state[name])
        for name in ("lines_per_set", "tags", "flags", "last_touch"))
    if len(sizes) != lru.num_sets:
        raise CheckpointError(
            f"LLC geometry changed: snapshot has {len(sizes)} "
            f"sets, live cache has {lru.num_sets}")
    if not len(tags) == len(flags) == len(touches) == sum(sizes):
        raise CheckpointError(
            f"LLC column lengths {len(tags)}/{len(flags)}/{len(touches)} "
            f"disagree with the {sum(sizes)} lines the sets hold")
    if not set(flags) <= {0, 1, 2, 3}:
        raise CheckpointError(f"LLC line flags outside 0-3: "
                              f"{sorted(set(flags) - {0, 1, 2, 3})}")
    bounds = list(zip(itertools.accumulate(sizes, initial=0),
                      itertools.accumulate(sizes)))
    tag_sets = [tags[start:end] for start, end in bounds]
    for index, (size, set_tags) in enumerate(zip(sizes, tag_sets)):
        distinct = len(set(set_tags))
        if not distinct == size <= lru.assoc:
            raise CheckpointError(
                f"LLC set {index} holds {size} lines with {distinct} "
                f"distinct tags in a {lru.assoc}-way cache")
    lru._tag_sets = tag_sets
    lru._flags = [flags[start:end] for start, end in bounds]
    lru._touches = [touches[start:end] for start, end in bounds]
    lru.set_access_counts[:] = _sized(
        state["set_access_counts"], lru.num_sets, "set_access_counts")
    # hit_counters / buckets are aliased by the LLC hot path
    # (llc._hit_counters, llc._db_buckets); restore strictly in place.
    profiler = llc.profiler
    profiler.hit_counters[:] = _sized(
        state["profiler"]["hit_counters"], len(profiler.hit_counters),
        "profiler.hit_counters")
    _fields_from_dict(profiler, _PROFILER_FIELDS, state["profiler"])
    deadblock = llc.deadblock
    deadblock.buckets[:] = _sized(
        state["deadblock"]["buckets"], len(deadblock.buckets),
        "deadblock.buckets")
    _fields_from_dict(deadblock, _DEADBLOCK_FIELDS, state["deadblock"])
    age = state["deadblock"]["age_threshold"]
    deadblock.age_threshold = float("inf") if age is None else age


def _capture_dram_buffer(system: "System") -> Optional[Dict[str, Any]]:
    buffer = system.dram_buffer
    if buffer is None:
        return None
    return {
        "lines": list(buffer._lines.keys()),
        "stats": _fields_to_dict(buffer.stats, _DRAM_STATS_FIELDS),
    }


def _capture_wear(system: "System") -> Dict[str, Any]:
    wear = system.wear
    return {
        "records": [[record.normal_writes,
                     [[factor, count] for factor, count
                      in record.slow_writes_by_factor.items()]]
                    for record in wear.records],
        "damage_watermarks": list(wear._damage_watermarks),
        "remappers": [_fields_to_dict(remapper, _REMAPPER_FIELDS)
                      for remapper in wear.remappers],
        "block_damage": [list(row) for row in wear.block_damage],
    }


def _restore_wear(restore: _Restore, state: Dict[str, Any]) -> None:
    wear = restore.system.wear
    records = _sized(state["records"], len(wear.records), "records")
    for record, row in zip(wear.records, records):
        record.normal_writes = row[0]
        record.slow_writes_by_factor = {
            factor: count for factor, count in row[1]}
    wear._damage_watermarks = list(_sized(
        state["damage_watermarks"], len(wear._damage_watermarks),
        "damage_watermarks"))
    remappers = _sized(state["remappers"], len(wear.remappers), "remappers")
    for remapper, remap_state in zip(wear.remappers, remappers):
        _fields_from_dict(remapper, _REMAPPER_FIELDS, remap_state)
    rows = _sized(state["block_damage"], len(wear.block_damage),
                  "block_damage")
    for bank, (target, row) in enumerate(zip(wear.block_damage, rows)):
        target[:] = _sized(row, len(target), f"block_damage[{bank}]")
    # Pending whole-write buffers were flushed before capture.
    wear._pend_normal = [0.0] * wear.num_banks
    wear._pend_slow = [dict() for _ in range(wear.num_banks)]
    wear._pend_dirty = False


def _capture_faults(system: "System") -> Optional[Dict[str, Any]]:
    injector = system.faults
    if injector is None:
        return None
    states = [state for bank_lines in injector._lines
              for state in bank_lines.values()]
    # Each line's state as one entry per column, banks in order and each
    # bank's lines in first-touch order; limits holds cells_per_line
    # entries per line.
    return {
        "stats": _fields_to_dict(injector.stats, _FAULT_STATS_FIELDS),
        "rng": _rng_state(injector._rng),
        "spares_left": list(injector.spares_left),
        "retired_per_bank": list(injector.retired_per_bank),
        "lines_per_bank": pack_ints(map(len, injector._lines),
                                    "lines_per_bank"),
        "line": pack_ints(itertools.chain.from_iterable(injector._lines),
                          "line"),
        "limits": pack_floats(itertools.chain.from_iterable(
            state.limits for state in states), "limits"),
        "damage": pack_floats([state.damage for state in states], "damage"),
        "dead": pack_ints([state.dead for state in states], "dead"),
        "replaced": pack_ints([state.replaced for state in states],
                              "replaced"),
    }


def _retired_per_bank(system: "System") -> List[int]:
    """Lines retired per bank: the fault injector's count, else zeros."""
    injector = system.faults
    if injector is None:
        return [0] * system.controller._num_banks
    return list(injector.retired_per_bank)


def _restore_faults(restore: _Restore, state: Any) -> None:
    injector = restore.system.faults
    if not _present(injector, state, "fault"):
        return
    from repro.faults.injector import _LineState
    _fields_from_dict(injector.stats, _FAULT_STATS_FIELDS, state["stats"])
    _restore_rng(injector._rng, state["rng"])
    banks = len(injector._lines)
    injector.spares_left[:] = _sized(state["spares_left"], banks,
                                     "spares_left")
    injector.retired_per_bank[:] = _sized(state["retired_per_bank"], banks,
                                          "retired_per_bank")
    counts = list(_sized(state["lines_per_bank"], banks, "lines_per_bank"))
    lines, damage, dead, replaced = (
        list(_sized(state[name], sum(counts), name))
        for name in ("line", "damage", "dead", "replaced"))
    cells = injector.config.cells_per_line
    limits = list(_sized(state["limits"], cells * len(lines), "limits"))
    start = 0
    for bank, (bank_lines, count) in enumerate(zip(injector._lines, counts)):
        bank_lines.clear()
        for index in range(start, start + count):
            bank_lines[lines[index]] = _LineState(
                limits[index * cells:(index + 1) * cells], damage[index],
                dead[index], replaced[index])
        start += count
        if len(bank_lines) != count:
            raise ValueError(f"fault bank {bank} repeats a line")


#: The trace ring's record fields.  The string fields are stored as
#: codes into a table of their values.
_RING_FIELDS = tuple(field.name for field in dataclasses.fields(TraceEvent))
_RING_CODED_FIELDS = ("kind", "detail")
#: Integer fields that hold -1 or a non-negative value, stored plus one.
_RING_OFFSET_FIELDS = ("bank",)
_WORD = 8


def _xor_planes(times: "array[float]") -> "array[int]":
    """Doubles, bit-exactly, as the byte planes of each value's 64-bit
    pattern XORed with the previous one's (little-endian words): equal
    or close neighbours leave mostly zero bytes, which compress."""
    if sys.byteorder != "little":
        times = array("d", times)
        times.byteswap()
    raw = times.tobytes()
    chained = (int.from_bytes(raw, "little")
               ^ int.from_bytes(bytes(_WORD) + raw[:-_WORD], "little")
               ).to_bytes(len(raw), "little")
    return array("B", b"".join(chained[plane::_WORD]
                               for plane in range(_WORD)))


def _from_xor_planes(planes: Sequence[int]) -> "array[float]":
    count, rest = divmod(len(planes), _WORD)
    if rest:
        raise ValueError(f"t_ns_xor holds {len(planes)} bytes, "
                         f"not whole {_WORD}-byte words")
    raw = bytearray(len(planes))
    for plane in range(_WORD):
        raw[plane::_WORD] = bytes(planes[plane * count:(plane + 1) * count])
    # XOR of whole words is XOR of their bytes, in either byte order.
    words = array("Q", raw)
    previous = 0
    for index, word in enumerate(words):
        words[index] = previous = word ^ previous
    times = array("d", words.tobytes())
    if sys.byteorder != "little":
        times.byteswap()
    return times


def _id_deltas(ids: Sequence[int]) -> "array[int]":
    """Request ids (-1 or non-negative) as 0 for -1, else one plus the
    zigzag-coded difference from the previous id that was not -1."""
    out = []
    previous = 0
    for value in ids:
        if value == -1:
            out.append(0)
        else:
            delta = value - previous
            out.append((delta << 1 if delta >= 0 else ~delta << 1 | 1) + 1)
            previous = value
    return pack_ints(out, "req_id_delta")


def _from_id_deltas(codes: Sequence[int]) -> List[int]:
    ids = []
    previous = 0
    for code in codes:
        if code == 0:
            ids.append(-1)
        else:
            code -= 1
            previous += ~(code >> 1) if code & 1 else code >> 1
            ids.append(previous)
    return ids


def _block_codes(blocks: Sequence[int],
                 ids: Sequence[int]) -> "array[int]":
    """Blocks (-1 or non-negative) as 0 where a record repeats the block
    of the previous record with the same request id (most records of a
    request do), else the block plus two."""
    last: Dict[int, int] = {}
    out = []
    for block, req_id in zip(blocks, ids):
        out.append(0 if last.get(req_id) == block else block + 2)
        last[req_id] = block
    return pack_ints(out, "block_by_req")


def _from_block_codes(codes: Sequence[int], ids: Sequence[int]) -> List[int]:
    last: Dict[int, int] = {}
    blocks = []
    for code, req_id in zip(_sized(codes, len(ids), "block_by_req"), ids):
        block = last[req_id] if code == 0 else code - 2
        blocks.append(block)
        last[req_id] = block
    return blocks


def _capture_ring(tracer: EventTracer) -> Dict[str, Any]:
    """The trace ring's records as one column per field, oldest first.

    A numeric field whose values are not all of one type is a JSON list
    under the field's name (JSON keeps ``2`` and ``2.0`` apart, so each
    value restores with its exact type).  Otherwise each field takes the
    form that compresses best and restores bit-exactly: ``t_ns_xor``
    (:func:`_xor_planes`), ``bank_1`` (each value plus one),
    ``block_by_req`` (:func:`_block_codes`), ``req_id_delta``
    (:func:`_id_deltas`) and ``factor`` as doubles.  A string field
    is ``<field>`` codes into a ``<field>_table``."""
    ring: Dict[str, Any] = {"recorded": tracer.recorded}
    ids = tracer.column(_RING_FIELDS.index("req_id"))
    for field, name in enumerate(_RING_FIELDS):
        values = tracer.column(field)
        if name in _RING_CODED_FIELDS:
            table = list(dict.fromkeys(values))
            index = {value: code for code, value in enumerate(table)}
            ring[name] = pack_ints(map(index.__getitem__, values), name)
            ring[f"{name}_table"] = table
        elif not isinstance(values, array):
            ring[name] = values
        elif name == "t_ns":
            ring["t_ns_xor"] = _xor_planes(values)
        elif name == "req_id":
            ring["req_id_delta"] = _id_deltas(values)
        elif name == "block":
            ring["block_by_req"] = _block_codes(values, ids)
        elif name in _RING_OFFSET_FIELDS:
            ring[f"{name}_1"] = pack_ints(map((1).__add__, values),
                                          f"{name}_1")
        else:
            ring[name] = values
    return ring


def _ring_column(ring: Dict[str, Any], name: str,
                 ids: Sequence[int]) -> Sequence[Any]:
    """One ring field's values, oldest first, from its stored form;
    ``ids`` is the restored ``req_id`` column."""
    if name in _RING_CODED_FIELDS:
        table = ring[f"{name}_table"]
        return [table[code] for code in ring[name]]
    if name in ring:
        return ring[name]
    if name == "t_ns":
        return _from_xor_planes(ring["t_ns_xor"])
    if name == "req_id":
        return ids
    if name == "block":
        return _from_block_codes(ring["block_by_req"], ids)
    return [value - 1 for value in ring[f"{name}_1"]]


def _restore_ring(tracer: EventTracer, ring: Dict[str, Any]) -> None:
    ids = (ring["req_id"] if "req_id" in ring
           else _from_id_deltas(ring["req_id_delta"]))
    columns = [_ring_column(ring, name, ids) for name in _RING_FIELDS]
    for name, column in zip(_RING_FIELDS, columns):
        _sized(column, len(columns[0]), name)
    tracer.load(ring["recorded"], zip(*columns))


def _capture_telemetry(system: "System") -> Optional[Dict[str, Any]]:
    telemetry = system.telemetry
    if not telemetry.enabled:
        return None
    registry = telemetry.metrics

    def heatmap_state(heatmap: Any) -> Dict[str, Any]:
        return {"epoch_times_ns": list(heatmap.epoch_times_ns),
                "rows": [list(row) for row in heatmap.rows]}

    return {
        "metrics": {
            "counters": {name: counter.value for name, counter
                         in registry._counters.items()},
            "gauges": {name: gauge.value for name, gauge
                       in registry._gauges.items()},
            "histograms": {name: {"bounds": list(hist.bounds),
                                  "counts": list(hist.counts)}
                           for name, hist in registry._histograms.items()},
            "sample_times_ns": list(registry.sample_times_ns),
            "series": {name: list(column) for name, column
                       in registry.series.items()},
        },
        "tracer": _capture_ring(telemetry.tracer),
        "heatmap": heatmap_state(telemetry.heatmap),
        "retired_heatmap": heatmap_state(telemetry.retired_heatmap),
    }


def _restore_telemetry(restore: _Restore, state: Any) -> None:
    telemetry = restore.system.telemetry
    if not _present(telemetry if telemetry.enabled else None, state,
                    "telemetry"):
        return
    registry = telemetry.metrics
    metrics = state["metrics"]
    for name, value in metrics["counters"].items():
        registry.counter(name).value = value
    for name, value in metrics["gauges"].items():
        registry.gauge(name).value = value
    for name, hist in metrics["histograms"].items():
        registry.histogram(name, tuple(hist["bounds"])).counts[:] = \
            hist["counts"]
    registry.sample_times_ns[:] = metrics["sample_times_ns"]
    registry.series = {name: list(column) for name, column
                       in metrics["series"].items()}
    _restore_ring(telemetry.tracer, state["tracer"])
    for name in ("heatmap", "retired_heatmap"):
        heatmap, heat_state = getattr(telemetry, name), state[name]
        heatmap.epoch_times_ns[:] = heat_state["epoch_times_ns"]
        heatmap.rows[:] = [list(row) for row in heat_state["rows"]]


def capture_state(system: "System") -> Dict[str, Any]:
    """Serialize a paused system's complete state to a plain dict.

    Must be called at an event boundary (no core frame on the stack).
    The wear records fold in their epoch buffers when read; nothing else
    is buffered, so a captured-and-continued run stays bit-identical to
    a straight-through one.
    """
    core = system.core
    if core._in_run or core._owns_clock:
        raise CheckpointUnsupportedError(
            "capture_state must run at an event boundary, not from "
            "inside a core execution frame")
    ctrl = system.controller
    capture = _Capture(system)
    events = system.events

    # One row per bank: busy time, operations begun and cancelled, lines
    # retired.  The retired column repeats the fault injector's count
    # (zeros without faults); _restore_controller checks they agree.
    banks_rows = [list(row) for row in zip(
        ctrl.bank_busy_ns, ctrl.bank_ops_begun, ctrl.bank_ops_cancelled,
        _retired_per_bank(system))]
    bank_in_flight = [
        None if request is None else capture.request_ref(request)
        for request in ctrl._bank_in_flight
    ]
    heap_rows = [[time_ns, seq, capture.encode_event(fn, arg)]
                 for time_ns, seq, fn, arg in events._heap]

    # Peek-and-reanchor: observe the next request id without changing
    # what the live controller will hand out next.
    next_request_id = next(ctrl._request_ids)
    ctrl._request_ids = itertools.count(next_request_id)

    quota = system.quota
    flip = system.flip_n_write

    state: Dict[str, Any] = {
        "state_schema": STATE_SCHEMA_VERSION,
        "sanitize": bool(system.sanitize),
        "events": {
            "now": events.now,
            "seq": events._seq,
            "heap": heap_rows,
        },
        "system": _fields_to_dict(system, _SYSTEM_FIELDS),
        "core": {
            **_fields_to_dict(core, _CORE_FIELDS),
            "pending_fill": _trace_record_row(core._pending_fill),
            "gap_record": _trace_record_row(core._gap_record),
        },
        "trace": _capture_trace(system),
        "controller": {
            **_fields_to_dict(ctrl, _CTRL_FIELDS),
            "stats": _fields_to_dict(ctrl.stats, _CTRL_STATS_FIELDS),
            "next_request_id": next_request_id,
            "write_space_waiters": [capture.encode_waiter(w)
                                    for w in ctrl._write_space_waiters],
            "read_space_waiters": [capture.encode_waiter(w)
                                   for w in ctrl._read_space_waiters],
            "faw": [list(limiter._recent) for limiter in ctrl.faw],
            "queues": {
                "read": _capture_queue(capture, ctrl.read_q),
                "write": _capture_queue(capture, ctrl.write_q),
                "eager": _capture_queue(capture, ctrl.eager_q),
            },
            "banks": banks_rows,
            "bank_busy_until": list(ctrl._bank_busy_until),
            "bank_open_row": list(ctrl._bank_open_row),
            # The in-flight operation per bank: its request (an index
            # into the request table) and issue token, and the pulse
            # start, cancellable flag and resumed progress of the last
            # operation issued.
            "bank_in_flight": bank_in_flight,
            "bank_token": list(ctrl._bank_token),
            "bank_pulse_start": list(ctrl._bank_pulse_start),
            "bank_cancellable": list(ctrl._bank_cancellable),
            "bank_resumed": list(ctrl._bank_resumed),
        },
        "llc": _capture_llc(system),
        "wear": _capture_wear(system),
        "quota": None if quota is None else {
            "cumulative_wear": list(quota.cumulative_wear),
            "slow_only": list(quota.slow_only),
            **_fields_to_dict(quota, _QUOTA_FIELDS),
        },
        "faults": _capture_faults(system),
        "flip_n_write": None if flip is None else {
            "rng": _rng_state(flip.rng),
            **_fields_to_dict(flip, _FLIP_FIELDS),
        },
        "dram_buffer": _capture_dram_buffer(system),
        "telemetry": _capture_telemetry(system),
        # The request table last: fully populated by the walks above.
        "requests": capture.request_rows,
    }
    return state


def _restore_events(restore: _Restore, state: Dict[str, Any]) -> None:
    events = restore.system.events
    events.now = state["now"]
    events._seq = state["seq"]
    events._heap = [(time_ns, seq, *restore.decode_event(desc))
                    for time_ns, seq, desc in state["heap"]]
    events.stop = False


def _restore_system(restore: _Restore, state: Dict[str, Any]) -> None:
    _fields_from_dict(restore.system, _SYSTEM_FIELDS, state)


def _restore_core(restore: _Restore, state: Dict[str, Any]) -> None:
    core = restore.system.core
    _fields_from_dict(core, _CORE_FIELDS, state)
    core._pending_fill = _trace_record_from_row(state["pending_fill"])
    core._gap_record = _trace_record_from_row(state["gap_record"])
    # At most one dependent read is outstanding, the one the core waits on.
    dependent = restore.dependent_read_ids
    if len(dependent) > 1 or (dependent
                              and dependent[0] != core._wait_read_id):
        raise CheckpointError(
            f"snapshot has dependent reads {dependent} but the core "
            f"waits on read {core._wait_read_id}")
    core._in_run = False
    core._owns_clock = False


def _restore_controller(restore: _Restore, state: Dict[str, Any]) -> None:
    ctrl = restore.system.controller
    _fields_from_dict(ctrl, _CTRL_FIELDS, state)
    _fields_from_dict(ctrl.stats, _CTRL_STATS_FIELDS, state["stats"])
    ctrl._request_ids = itertools.count(state["next_request_id"])
    core = restore.system.core
    ctrl._write_space_waiters[:] = [
        getattr(core, name) for name in state["write_space_waiters"]]
    ctrl._read_space_waiters[:] = [
        getattr(core, name) for name in state["read_space_waiters"]]
    for limiter, recent in zip(ctrl.faw,
                               _sized(state["faw"], len(ctrl.faw), "faw")):
        limiter._recent.clear()
        limiter._recent.extend(recent)
    _restore_queue(restore, ctrl.read_q, state["queues"]["read"])
    _restore_queue(restore, ctrl.write_q, state["queues"]["write"])
    _restore_queue(restore, ctrl.eager_q, state["queues"]["eager"])
    banks = ctrl._num_banks
    rows = state["banks"]
    if len(rows) != banks:
        raise CheckpointError(
            f"snapshot has {len(rows)} controller bank rows for "
            f"{banks} banks")
    busy, begun, cancelled, retired = (list(column)
                                       for column in zip(*rows))
    if retired != _retired_per_bank(restore.system):
        raise CheckpointError(
            "snapshot controller bank rows disagree with the fault "
            "injector's retired lines per bank")
    ctrl.bank_busy_ns[:] = busy
    ctrl.bank_ops_begun[:] = begun
    ctrl.bank_ops_cancelled[:] = cancelled
    ctrl._bank_busy_until[:] = _sized(state["bank_busy_until"], banks,
                                      "bank_busy_until")
    ctrl._bank_open_row[:] = _sized(state["bank_open_row"], banks,
                                    "bank_open_row")
    ctrl._bank_in_flight[:] = [
        None if ref is None else restore.requests[ref]
        for ref in _sized(state["bank_in_flight"], banks, "bank_in_flight")]
    ctrl._bank_token[:] = _sized(state["bank_token"], banks, "bank_token")
    # A busy bank's token names its latest issue; a completion event's
    # token names an issue its bank has begun.
    for bank, (request, token, issued) in enumerate(zip(
            ctrl._bank_in_flight, ctrl._bank_token, begun)):
        expected = -1 if request is None else issued * banks + bank
        if token != expected or (request is not None
                                 and request.bank != bank):
            raise CheckpointError(
                f"bank {bank} holds issue token {token}, expected "
                f"{expected}")
    for token in restore.completion_tokens:
        issue, bank = divmod(token, banks)
        if not 1 <= issue <= ctrl.bank_ops_begun[bank]:
            raise CheckpointError(
                f"a completion event names issue {issue} of bank {bank}, "
                f"which has begun {ctrl.bank_ops_begun[bank]}")
    ctrl._bank_pulse_start[:] = _sized(state["bank_pulse_start"], banks,
                                       "bank_pulse_start")
    ctrl._bank_cancellable[:] = [bool(flag) for flag in _sized(
        state["bank_cancellable"], banks, "bank_cancellable")]
    ctrl._bank_resumed[:] = _sized(state["bank_resumed"], banks,
                                   "bank_resumed")


def _restore_quota(restore: _Restore, state: Any) -> None:
    quota = restore.system.quota
    if _present(quota, state, "wear-quota"):
        quota.cumulative_wear = list(_sized(
            state["cumulative_wear"], len(quota.cumulative_wear),
            "cumulative_wear"))
        quota.slow_only[:] = [bool(v) for v in _sized(
            state["slow_only"], len(quota.slow_only), "slow_only")]
        _fields_from_dict(quota, _QUOTA_FIELDS, state)


def _restore_flip_n_write(restore: _Restore, state: Any) -> None:
    flip = restore.system.flip_n_write
    if _present(flip, state, "Flip-N-Write"):
        _restore_rng(flip.rng, state["rng"])
        _fields_from_dict(flip, _FLIP_FIELDS, state)


def _restore_dram_buffer(restore: _Restore, state: Any) -> None:
    buffer = restore.system.dram_buffer
    if _present(buffer, state, "DRAM-buffer"):
        buffer._lines.clear()
        buffer._lines.update(dict.fromkeys(state["lines"]))
        _fields_from_dict(buffer.stats, _DRAM_STATS_FIELDS, state["stats"])


#: State sections in restore order: the request table first, since the
#: controller's queues and bank slots refer into it by index, and the
#: faults before the controller, whose bank rows are checked against them.
_SECTION_RESTORERS: Dict[str, Callable[[_Restore, Any], None]] = {
    "requests": _restore_requests,
    "events": _restore_events,
    "system": _restore_system,
    "core": _restore_core,
    "trace": _restore_trace,
    "faults": _restore_faults,
    "controller": _restore_controller,
    "llc": _restore_llc,
    "wear": _restore_wear,
    "quota": _restore_quota,
    "flip_n_write": _restore_flip_n_write,
    "dram_buffer": _restore_dram_buffer,
    "telemetry": _restore_telemetry,
}


def restore_state(system: "System", state: Dict[str, Any]) -> None:
    """Overwrite a freshly constructed system with captured state.

    ``system`` must come straight from ``System(config)`` with the same
    config (and the same sanitize environment) the snapshot was captured
    under: construction wires probes and rebuilds the workload trace; this
    function then overwrites every piece of mutable state.  A state that
    lacks a section or holds a field of the wrong shape raises
    :class:`CheckpointError` naming the section.
    """
    schema = state.get("state_schema")
    if schema != STATE_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported state schema {schema!r} "
            f"(this build reads schema {STATE_SCHEMA_VERSION})")
    missing = [name for name in ("sanitize", *_SECTION_RESTORERS)
               if name not in state]
    if missing:
        raise CheckpointError(
            f"snapshot state lacks sections {missing}")
    if bool(system.sanitize) != bool(state["sanitize"]):
        raise CheckpointError(
            f"snapshot was captured with sanitize="
            f"{bool(state['sanitize'])} but this environment resolves "
            f"sanitize={bool(system.sanitize)} (check REPRO_SANITIZE)")
    _restore_sections(system, state, _SECTION_RESTORERS)


def _restore_sections(system: "System", state: Dict[str, Any],
                      names: Iterable[str]) -> None:
    """Restore ``names`` from ``state`` in order; a malformed section
    raises :class:`CheckpointError` naming it."""
    restore = _Restore(system)
    # The core's hoisted loop locals reference the LLC columns and the
    # event heap, which restore replaces: rebuild them on next use.
    system.core._hot = None
    for name in names:
        try:
            _SECTION_RESTORERS[name](restore, state[name])
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as error:
            raise CheckpointError(
                f"snapshot state section {name!r} is malformed: "
                f"{type(error).__name__}: {error}") from None


#: The sections functional warm-up writes, in restore order.
_WARM_SECTIONS: Tuple[str, ...] = ("trace", "llc", "dram_buffer")


def capture_warm(system: "System") -> Dict[str, Any]:
    """The state functional warm-up leaves behind, as a plain dict.

    Call it on a system whose only work so far is
    :meth:`~repro.sim.system.System._functional_warmup`: the warm-up
    writes the trace position, the LLC and the DRAM write buffer and
    nothing else, so these three snapshot sections are the whole warm
    state.  :func:`restore_warm` puts it into any fresh system whose
    config has the same :meth:`~repro.sim.config.SimConfig.warm_key`.
    """
    return {
        "state_schema": STATE_SCHEMA_VERSION,
        "trace": _capture_trace(system),
        "llc": _capture_llc(system),
        "dram_buffer": _capture_dram_buffer(system),
    }


def restore_warm(system: "System", state: Dict[str, Any]) -> None:
    """Overwrite a fresh system with a :func:`capture_warm` state; the
    system is then exactly where its own functional warm-up would have
    left it."""
    schema = state.get("state_schema")
    if schema != STATE_SCHEMA_VERSION:
        raise CheckpointError(
            f"unsupported warm state schema {schema!r} "
            f"(this build reads schema {STATE_SCHEMA_VERSION})")
    _restore_sections(system, state, _WARM_SECTIONS)
