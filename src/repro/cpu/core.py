"""Simplified out-of-order core model.

The core consumes a trace of LLC accesses.  Between accesses it retires
``gap_insts`` instructions at its base CPI.  Memory behaviour:

* LLC hits proceed without stalling (the OoO window hides the 35-cycle
  LLC latency).
* LLC load misses occupy one of ``mlp`` MSHR-bounded outstanding-read slots.
  When every slot is busy, the core stalls until one frees.
* *Dependent* load misses stall the core until that specific read returns -
  this is what makes read latency (and write drains that delay reads)
  visible in IPC, with per-workload sensitivity.
* Store misses allocate in the LLC (write-allocate) and issue a fill read,
  but do not block retirement beyond the MLP bound.
* Dirty LLC evictions become memory writebacks; a full write queue applies
  backpressure and stalls the core (as a stalled cache fill would).

IPC is reported in *core cycles*: instructions retired divided by elapsed
time over the measurement window.

Implementation style: the core is an event-queue actor.  ``_run`` drains as
much of the trace as possible; it returns early when a wait condition holds
(dependent read outstanding, MLP slots exhausted, or a queue-full
backpressure).  Completion callbacks clear their condition and re-enter
``_run``.  Stall time is accounted from the moment ``_run`` first blocks to
the moment it makes progress again.

Clock advance, hits and misses: for a workload profile's trace,
``_run_inner`` draws each record in-line from the trace's ``raw_parts``
(the same draws, in the same order, as the trace's own generator).
While the core owns the clock and no pending event is due at or before
the access time, the loop moves the clock there itself (with the
sanitizer's monotonicity check when it is armed).  It applies every
access in place on the cache's three LRU columns with the exact effects
of :meth:`LastLevelCache.access`: a hit moves the line to MRU, a miss
fills it and evicts the LRU line, and only a miss leaves the loop, for
:meth:`_handle_miss` with the dirty victim's block.  Access and hit
counts stay in locals and are written back before anything can read
them.  Every other gap goes through :meth:`_resolve_gap`: from a frame
that owns the clock, :meth:`EventQueue.cross` runs every event due
strictly before the access time in place and the loop carries on; a tie
at the access time, a stop or a re-entry from a controller frame turns
the instruction gap into a gap event in the heap, whose firing resumes
the loop with the record it carries.  Every resolution is observably
identical to scheduling the gap event; see docs/performance.md for the
clock-ownership rule that keeps them so.  The owner hears of accesses
through ``on_access``, called only once ``accesses_processed`` reaches
``access_limit`` (the owner re-arms it from inside the call).
"""

from __future__ import annotations

import sys
from math import log
from typing import Any, Callable, Iterator, Optional, Tuple

from repro import params
from repro.cache.deadblock import DeadBlockPredictor
from repro.cache.llc import LastLevelCache
from repro.cache.lru import DIRTY, EAGER_CLEANED
from repro.cpu.trace import TraceRecord
from repro.memory.controller import MemoryController
from repro.sim.events import EventQueue
from repro.sim.sanitize import check, resolve

__all__ = ["SimpleCore"]

_new_tuple = tuple.__new__


class SimpleCore:
    def __init__(
        self,
        events: EventQueue,
        llc: LastLevelCache,
        controller: MemoryController,
        trace: Iterator[TraceRecord],
        base_cpi: float = 0.5,
        mlp: int = params.LLC_MSHRS,
        on_access: Optional[Callable[[int], None]] = None,
        writeback_sink: Optional[Callable[[int], bool]] = None,
        sanitize: Optional[bool] = None,
    ) -> None:
        if base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        self.events = events
        self.llc = llc
        self.controller = controller
        self.trace = trace
        self.base_cpi = base_cpi
        self.mlp = mlp
        self.on_access = on_access
        # on_access runs once accesses_processed reaches this count; the
        # owner re-arms it from inside each call (System publishes the
        # next warm-up end, window end or checkpoint pause).  By default
        # every access is reported; without on_access, none is.
        self.access_limit = 0 if on_access is not None else sys.maxsize
        self._sanitize = resolve(sanitize)
        # Writebacks normally go straight to the controller's write queue;
        # a DRAM write buffer (repro.memory.drambuffer) interposes here.
        self.writeback_sink = (
            writeback_sink if writeback_sink is not None
            else controller.submit_write
        )

        self.instructions_retired = 0
        self.accesses_processed = 0
        self.outstanding_reads = 0
        self.stall_time_ns = 0.0

        self._next_read_id = 0
        self._wait_read_id: Optional[int] = None    # dependent-load wait
        self._waiting_mlp = False
        self._waiting_write_space = False
        self._waiting_read_space = False
        self._wait_since: Optional[float] = None
        self._pending_writeback: Optional[int] = None
        self._pending_fill: Optional[TraceRecord] = None
        self._finished = False
        self._in_run = False
        # The analytic clock advance is only sound while the core owns the
        # outermost event frame - its own gap/start event, where nothing in
        # any enclosing frame runs after the callback returns.  When _run is
        # re-entered from a *controller* frame (a read-completion or
        # queue-space callback), the caller still has work to do at the
        # current time (e.g. _complete_read issues the bank's next request
        # after the callback), so moving the clock under it would reorder
        # the simulation.  There the loop schedules its gap event instead.
        self._owns_clock = False
        # Gap event: one bound method reused for every gap
        # (at most one gap event is ever outstanding), with the record
        # carried in an attribute instead of a fresh closure per record.
        self._gap_record: Optional[TraceRecord] = None
        self._gap_callback = self._gap_fired
        # The record loop's hoisted locals (see _hot_locals), built on
        # first use; None whenever what they reference may be replaced.
        self._hot: Optional[Tuple[Any, ...]] = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first instruction batch."""
        self.events.schedule(self.events.now, self._start_event)

    def _start_event(self, _arg: None) -> None:
        self._owns_clock = True
        try:
            self._run()
        finally:
            self._owns_clock = False

    def mark_counters_reset(self) -> None:
        """Zero retirement counters (end of warmup)."""
        self.instructions_retired = 0
        self.accesses_processed = 0
        self.stall_time_ns = 0.0
        if self._wait_since is not None:
            self._wait_since = self.events.now

    @property
    def finished(self) -> bool:
        return self._finished

    def ipc(self, window_ns: float) -> float:
        """Instructions per core cycle over ``window_ns``."""
        if window_ns <= 0:
            return 0.0
        cycles = window_ns / params.CPU_CLK_NS
        return self.instructions_retired / cycles

    # ------------------------------------------------------------------
    # Wait-condition bookkeeping
    # ------------------------------------------------------------------

    def _blocked(self) -> bool:
        return (
            self._wait_read_id is not None
            or self._waiting_mlp
            or self._waiting_write_space
            or self._waiting_read_space
        )

    def _note_blocked(self) -> None:
        if self._wait_since is None:
            self._wait_since = self.events.now

    def _note_progress(self) -> None:
        if self._wait_since is not None:
            self.stall_time_ns += self.events.now - self._wait_since
            self._wait_since = None

    # ------------------------------------------------------------------
    # Main driver
    # ------------------------------------------------------------------

    def _run(self) -> None:
        if self._in_run:
            return
        self._in_run = True
        try:
            self._run_inner(None)
        finally:
            self._in_run = False

    def _hot_locals(self) -> Tuple[Any, ...]:
        """Everything the record loop reads per record, in one tuple.

        Built lazily and dropped (``_hot = None``) whenever what it
        references may be replaced: a checkpoint restore installs new
        LLC columns and a new event heap, and ``System.release`` cuts
        the core's edges.  A trace without ``raw_parts`` (a workload
        mix, a trace file) is pulled with ``next``.
        """
        events = self.events
        llc = self.llc
        cache = llc.cache
        trace = self.trace
        raw_parts = getattr(trace, "raw_parts", None)
        if raw_parts is not None:
            rnd, compiled, fallback = raw_parts
            lambd = trace.lambd
        else:
            rnd = compiled = fallback = lambd = None
        return (events, events._heap, events._executed, events._sanitize,
                trace, rnd, compiled, fallback, lambd, llc.stats,
                llc.profiler, cache.num_sets, cache.assoc, cache._tag_sets,
                cache._flags, cache._touches, cache.set_access_counts,
                llc._hit_counters, llc._db_buckets, self.base_cpi)

    def _run_inner(self,
                   resume: Optional[TraceRecord]) -> None:   # simlint: hotpath
        # The per-record loop.  Every attribute it reads per record is
        # hoisted from one prebuilt tuple; the access, instruction and
        # LLC-hit counts live in locals and are written back (_flush)
        # before any call that could read them - an event crossed in
        # place, on_access, a miss - and before every return.  ``resume``
        # is the record a fired gap event carries: its gap is crossed, so
        # the loop starts with its access.
        if self._finished:
            return
        if (self._wait_read_id is not None
                or self._waiting_mlp
                or self._waiting_write_space
                or self._waiting_read_space):
            self._note_blocked()
            return
        if (self._pending_writeback is not None
                or self._pending_fill is not None):
            if not self._retire_backlog():
                self._note_blocked()
                return
        if self._wait_since is not None:
            self._note_progress()
        hot = self._hot
        if hot is None:
            hot = self._hot = self._hot_locals()
        (events, heap, executed, sanitize, trace, rnd, compiled, fallback,
         lambd, stats, profiler, num_sets, assoc, tag_sets, flag_sets,
         touch_sets, set_counts, hit_counters, db_buckets, base_cpi) = hot
        clk_ns = params.CPU_CLK_NS
        max_bucket = DeadBlockPredictor.MAX_BUCKET
        count = self.accesses_processed
        insts = self.instructions_retired
        limit = self.access_limit
        hits = 0
        now = events.now
        # The clock moves in-line only from a frame that owns it and
        # before a stop; every other gap goes through _resolve_gap.
        inline = self._owns_clock and not events.stop
        while True:
            if resume is not None:
                _, block, is_write, dependent = resume
                resume = None
                gap = 0
            elif rnd is not None:
                # ProfileTrace._record_gen's draws, in its order.
                r = rnd()
                for cum, fast_next in compiled:
                    if r <= cum:
                        chosen = fast_next
                        break
                else:
                    chosen = fallback
                block, is_write, dependent = chosen()
                gap = int(-log(1.0 - rnd()) / lambd)
            else:
                record = next(trace, None)
                if record is None:
                    self._flush(count, insts, hits)
                    self._finished = True
                    return
                # One C-level tuple unpack instead of a property
                # descriptor per field (TraceRecord is a NamedTuple).
                gap, block, is_write, dependent = record
            if gap > 0:
                insts += gap
                target = now + gap * base_cpi * clk_ns
                if inline and (not heap or heap[0][0] > target):
                    # A popped gap event's effects, in-line.
                    if sanitize:
                        check(target >= events.now, "event-time-monotonicity",
                              "analytic advance moved the clock backwards",
                              event_time_ns=target, now_ns=events.now)
                    events.now = now = target
                    if executed is not None:
                        executed.value += 1.0
                else:
                    self._flush(count, insts, hits)
                    hits = 0
                    if not self._resolve_gap(target, gap, block, is_write,
                                             dependent):
                        return
                    now = events.now
            set_index = block % num_sets
            tag = block // num_sets
            tags = tag_sets[set_index]
            if tag in tags:
                # LastLevelCache.access on a hit, in place.
                set_counts[set_index] = touch = set_counts[set_index] + 1
                position = tags.index(tag)
                flags = flag_sets[set_index]
                touches = touch_sets[set_index]
                if position:
                    del tags[position]
                    tags.insert(0, tag)
                    flag = flags.pop(position)
                    flags.insert(0, flag)
                    age = touch - touches.pop(position)
                    touches.insert(0, touch)
                else:
                    flag = flags[0]
                    age = touch - touches[0]
                    touches[0] = touch
                if is_write:
                    if flag == EAGER_CLEANED:
                        stats.wasted_eager += 1
                    flags[0] = DIRTY
                hit_counters[position] += 1
                bucket = age.bit_length()
                db_buckets[bucket if bucket < max_bucket
                           else max_bucket] += 1
                hits += 1
                count += 1
                if count < limit:
                    continue
                self._flush(count, insts, hits)
                hits = 0
                self.on_access(count)
            else:
                # LastLevelCache.access on a miss, in place: fill at MRU,
                # evict the LRU line, count a dirty victim's writeback.
                set_counts[set_index] = touch = set_counts[set_index] + 1
                flags = flag_sets[set_index]
                touches = touch_sets[set_index]
                victim = None
                if len(tags) >= assoc:
                    victim_tag = tags.pop()
                    touches.pop()
                    if flags.pop() & DIRTY:
                        victim = victim_tag * num_sets + set_index
                        stats.writebacks += 1
                tags.insert(0, tag)
                flags.insert(0, DIRTY if is_write else 0)
                touches.insert(0, touch)
                stats.accesses += 1
                stats.misses += 1
                profiler.miss_counter += 1
                count += 1
                self._flush(count, insts, hits)
                hits = 0
                if count >= limit:
                    self.on_access(count)
                self._handle_miss(block, is_write, dependent, victim)
                # The entry checks again, in-line like every per-record
                # step: the miss may have blocked the core or left a
                # writeback or fill to retry (a space waiter can be
                # served before _handle_miss returns).
                if (self._wait_read_id is not None
                        or self._waiting_mlp
                        or self._waiting_write_space
                        or self._waiting_read_space):
                    self._note_blocked()
                    return
                if (self._pending_writeback is not None
                        or self._pending_fill is not None):
                    if not self._retire_backlog():
                        self._note_blocked()
                        return
                if self._wait_since is not None:
                    self._note_progress()
            # After on_access or a miss: the owner may have reset the
            # counters, re-armed the limit or requested a stop.
            count = self.accesses_processed
            insts = self.instructions_retired
            limit = self.access_limit
            now = events.now
            inline = self._owns_clock and not events.stop

    def _flush(self, count: int, insts: int, hits: int) -> None:
        """Write the record loop's local counts back."""
        self.accesses_processed = count
        self.instructions_retired = insts
        if hits:
            llc = self.llc
            stats = llc.stats
            stats.accesses += hits
            stats.hits += hits
            llc.deadblock.total_reuses += hits

    def _resolve_gap(self, target_ns: float, gap: int, block: int,
                     is_write: bool, dependent: bool) -> bool:
        """Resolve an instruction gap the loop could not cross in-line.

        Returns True when the clock now sits at ``target_ns`` and the
        access may run in-line.  Otherwise the record is held - in a gap
        event in the heap (scheduled, or pushed by
        :meth:`EventQueue.cross` under the sequence number
        :meth:`~EventQueue.schedule` would have taken) or parked as the
        fill to replay - and the loop must return.
        """
        events = self.events
        if events.stop or not self._owns_clock:
            # A stopped run ends at a clean event boundary; a controller
            # frame still has work at the current time (see _owns_clock).
            events.schedule(target_ns, self._gap_callback)
        elif events.cross(target_ns, self._gap_callback):
            # The check _gap_fired makes, on the same state.
            if not self._blocked() and self._retire_backlog():
                return True
            self._park(_new_tuple(
                TraceRecord, (gap, block, is_write, dependent)))
            return False
        self._gap_record = _new_tuple(
            TraceRecord, (gap, block, is_write, dependent))
        return False

    def _gap_fired(self, _arg: None) -> None:
        record = self._gap_record
        assert record is not None, "gap event fired without a pending record"
        self._gap_record = None
        if self._blocked() or not self._retire_backlog():
            self._park(record)
            return
        self._owns_clock = self._in_run = True
        try:
            self._run_inner(record)
        finally:
            self._owns_clock = self._in_run = False

    def _park(self, record: TraceRecord) -> None:
        """Hold a record whose gap is crossed until the core unblocks.

        Extremely rare: the core became blocked while the gap was open
        (e.g. a cancellation filled the write queue).  The access is
        replayed once unblocked."""
        self._pending_fill = record
        self._note_blocked()

    def _retire_backlog(self) -> bool:
        """Flush deferred work (writebacks, replayed fills); False = wait."""
        if self._pending_writeback is not None:
            if not self.writeback_sink(self._pending_writeback):
                self._waiting_write_space = True
                self.controller.wait_for_write_space(self._write_space_ready)
                return False
            self._pending_writeback = None
        if self._pending_fill is not None:
            record = self._pending_fill
            self._pending_fill = None
            self._do_access(record)
            if self._blocked():
                return False
        return True

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def _do_access(self, record: TraceRecord) -> None:
        """A replayed fill: one access outside the record loop."""
        block, is_write = record.block, record.is_write
        llc = self.llc
        result = llc.access(block, is_write)
        self.accesses_processed = count = self.accesses_processed + 1
        if count >= self.access_limit:
            self.on_access(count)
        if not result.hit:
            victim = result.victim
            self._handle_miss(
                block, is_write, record.dependent,
                llc.cache.block_of(block % llc.cache.num_sets, victim.tag)
                if victim is not None and victim.dirty else None)

    def _handle_miss(self, block: int, is_write: bool, dependent: bool,
                     victim_block: Optional[int]) -> None:
        # Dirty victim -> writeback (separate queue; may backpressure).
        if victim_block is not None:
            if not self.writeback_sink(victim_block):
                self._pending_writeback = victim_block
                self._waiting_write_space = True
                self.controller.wait_for_write_space(self._write_space_ready)

        # Fill read for the miss (loads and stores alike - write-allocate).
        read_id = self._next_read_id
        self._next_read_id += 1
        dependent_load = dependent and not is_write
        # A dependent load blocks the core until it returns, and _run_inner
        # issues nothing while blocked, so at most one dependent read is
        # ever outstanding: the one _wait_read_id names.  Its completion
        # needs no read id of its own.
        callback = (self._read_done_dependent if dependent_load
                    else self._read_done_plain)
        if not self.controller.submit_read(block, callback):
            # Read queue full: the line is already allocated; replay the
            # read (gap 0, same block - an LLC hit plus a fresh fill) once
            # space frees.
            self._pending_fill = TraceRecord(0, block, is_write, dependent)
            self._waiting_read_space = True
            self.controller.wait_for_read_space(self._read_space_ready)
            return
        self.outstanding_reads += 1

        if dependent_load:
            self._wait_read_id = read_id
        elif self.outstanding_reads >= self.mlp:
            self._waiting_mlp = True

    # ------------------------------------------------------------------
    # Resume callbacks
    # ------------------------------------------------------------------

    def _read_done_plain(self, _completion_ns: float) -> None:
        """Completion for non-dependent reads."""
        self.outstanding_reads -= 1
        if self._waiting_mlp and self.outstanding_reads < self.mlp:
            self._waiting_mlp = False
            self._run()

    def _read_done_dependent(self, _completion_ns: float) -> None:
        """Completion for the one outstanding dependent read."""
        if self._sanitize:
            check(
                self._wait_read_id is not None, "dependent-read-wait",
                "a dependent read completed while the core waited on none",
                outstanding_reads=self.outstanding_reads,
            )
        self.outstanding_reads -= 1
        self._wait_read_id = None
        if self._waiting_mlp and self.outstanding_reads < self.mlp:
            self._waiting_mlp = False
        self._run()

    def _write_space_ready(self) -> None:
        self._waiting_write_space = False
        self._run()

    def _read_space_ready(self) -> None:
        self._waiting_read_space = False
        self._run()
