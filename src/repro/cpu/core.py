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

Clock advance: instead of paying a heap round trip for the instruction
gap before every access, ``_run_inner`` asks the event queue for an
analytic clock advance (:meth:`EventQueue.advance_if_clear`) and performs
the access synchronously.  The advance succeeds only when no other event
is due at or before the access time, so stretches of uninterrupted
progress - consecutive LLC hits especially, but also misses whose
completions land later - cost zero heap operations and zero closure
allocations, while any intervening completion, epoch tick, or eager tick
boundary falls back to a scheduled (or deferred) gap event.  Both
resolutions are observably identical to scheduling the gap event; see
docs/performance.md for the clock-ownership rule that keeps them so.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro import params
from repro.cache.llc import LastLevelCache
from repro.cache.lru import AccessResult
from repro.cpu.trace import TraceRecord
from repro.memory.controller import MemoryController
from repro.sim.events import EventQueue
from repro.sim.sanitize import check, resolve

__all__ = ["SimpleCore"]


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
        self._sanitize = resolve(sanitize)
        # Writebacks normally go straight to the controller's write queue;
        # a DRAM write buffer (repro.memory.drambuffer) interposes here.
        self.writeback_sink = (
            writeback_sink if writeback_sink is not None
            else controller.submit_write
        )
        # Cooperative stop: the driver (System) sets this when the
        # measurement window closes so the core stops advancing the clock
        # analytically and yields control back to the event loop at the
        # next gap boundary, with its next gap event scheduled.
        self.stop_requested = False

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
        # the simulation.  There the loop defers a gap event instead.
        self._owns_clock = False
        # Gap event: one bound method reused for every gap
        # (at most one gap event is ever outstanding), with the record
        # carried in an attribute instead of a fresh closure per record.
        self._gap_record: Optional[TraceRecord] = None
        self._gap_callback = self._gap_fired

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
            self._run_inner()
        finally:
            self._in_run = False

    def _run_inner(self) -> None:   # simlint: hotpath
        # The per-record loop; every attribute consulted on each iteration
        # is hoisted into a local.  Bookkeeping helpers (_blocked,
        # _retire_backlog, _note_progress) are inlined as guarded slow
        # calls so the common all-clear record costs no function calls
        # beyond the trace pull, the clock advance and the LLC access.
        events = self.events
        advance_if_clear = events.advance_if_clear
        trace = self.trace
        # A profile trace exposes its generator's bound __next__; calling
        # it directly skips two iterator-protocol frames per record.  Any
        # other trace goes through plain next().
        trace_next = getattr(trace, "next_record", None)
        llc_access = self.llc.access
        on_access = self.on_access
        base_cpi = self.base_cpi
        clk_ns = params.CPU_CLK_NS
        owns_clock = self._owns_clock
        # Resumed inside a controller frame, the analytic advance is off
        # the table - the enclosing frame still has work at the current
        # time - but the gap event can be *deferred*: its heap slot is
        # reserved now (sequence order preserved) and the driver loop
        # resolves it once every enclosing frame has unwound, running it
        # inline when the window up to the gap target is quiescent.
        while not self._finished:
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
            if trace_next is not None:
                try:
                    record = trace_next()
                except StopIteration:
                    record = None
            else:
                record = next(trace, None)
            if record is None:
                self._finished = True
                return
            # One C-level tuple unpack instead of a property descriptor
            # per field (TraceRecord is a NamedTuple).
            gap_insts, block, is_write, _dependent = record
            if gap_insts > 0:
                self.instructions_retired += gap_insts
                gap_ns = gap_insts * base_cpi * clk_ns
                if (owns_clock and not self.stop_requested
                        and advance_if_clear(events.now + gap_ns)):
                    # The clock already sits at the access time; run the
                    # access body the gap event would have run.
                    pass
                elif not owns_clock and not self.stop_requested:
                    self._gap_record = record
                    events.defer(events.now + gap_ns, self._gap_callback)
                    return
                else:
                    self._gap_record = record
                    events.schedule_in(gap_ns, self._gap_callback)
                    return
            result = llc_access(block, is_write)
            self.accesses_processed = count = self.accesses_processed + 1
            if on_access is not None:
                on_access(count)
            if not result.hit:
                self._handle_miss(record, result)

    def _gap_fired(self, _arg: None) -> None:
        record = self._gap_record
        assert record is not None, "gap event fired without a pending record"
        self._gap_record = None
        if not self._blocked() and self._retire_backlog():
            self._do_access(record)
            self._owns_clock = True
            try:
                self._run()
            finally:
                self._owns_clock = False
            return
        # Extremely rare: became blocked between scheduling and firing
        # (e.g. a cancellation filled the write queue).  Replay the access
        # once unblocked.
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
        result = self.llc.access(record.block, record.is_write)
        self.accesses_processed += 1
        if self.on_access is not None:
            self.on_access(self.accesses_processed)
        if not result.hit:
            self._handle_miss(record, result)

    def _handle_miss(self, record: TraceRecord, result: AccessResult) -> None:
        # Dirty victim -> writeback (separate queue; may backpressure).
        if result.victim is not None and result.victim.dirty:
            victim_block = self.llc.cache.block_of(
                self.llc.cache.set_index(record.block), result.victim.tag,
            )
            if not self.writeback_sink(victim_block):
                self._pending_writeback = victim_block
                self._waiting_write_space = True
                self.controller.wait_for_write_space(self._write_space_ready)

        # Fill read for the miss (loads and stores alike - write-allocate).
        read_id = self._next_read_id
        self._next_read_id += 1
        dependent_load = record.dependent and not record.is_write
        # A dependent load blocks the core until it returns, and _run_inner
        # issues nothing while blocked, so at most one dependent read is
        # ever outstanding: the one _wait_read_id names.  Its completion
        # needs no read id of its own.
        callback = (self._read_done_dependent if dependent_load
                    else self._read_done_plain)
        if not self.controller.submit_read(record.block, callback):
            # Read queue full: the line is already allocated; replay the
            # read (gap 0, same block - an LLC hit plus a fresh fill) once
            # space frees.
            self._pending_fill = TraceRecord(
                0, record.block, record.is_write, record.dependent,
            )
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
