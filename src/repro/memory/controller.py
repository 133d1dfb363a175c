"""Event-driven memory controller (the NVMain-equivalent substrate).

Scheduling rules (Sections IV and V, Table II):

* Per idle bank, reads issue before writes; writes issue opportunistically
  when their bank has no queued read; eager requests issue only when their
  bank has neither queued reads nor queued writes.
* When the write queue fills to ``drain_high`` the controller enters *write
  drain* mode and prioritises writes over reads (per bank) until occupancy
  falls to ``drain_low``.
* A read arriving for a bank that is currently executing a *cancellable*
  write cancels it (write cancellation, Qureshi et al.); the victim write
  returns to the head of its queue and its partial cell stress is recorded
  as fractional wear.
* Write speed (normal vs slow) is chosen at issue time by the Figure-9
  decision tree (:mod:`repro.core.decision`).
* One shared 64-bit data bus serialises all data bursts (20 ns per line).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from typing import Callable, Dict, List, Optional

from repro import params
from repro.core.decision import choose_write_factor
from repro.core.policies import WritePolicy
from repro.core.wear_quota import WearQuota
from repro.endurance.wear import WearTracker
from repro.faults.injector import (WRITE_FATAL, WRITE_OK, WRITE_RETIRED,
                                   WRITE_RETRY, FaultInjector)
from repro.sim.sanitize import check, close_enough, resolve
from repro.memory.address import AddressMap
from repro.memory.queues import EAGER, READ, WRITE, Request, RequestQueue
from repro.memory.rank import RankFawLimiter
from repro.memory.timing import MemoryTiming
from repro.sim.events import EventQueue
from repro.telemetry import (EV_CANCEL, EV_CELL_FAIL, EV_COMPLETE,
                             EV_DRAIN_ENTER, EV_DRAIN_EXIT, EV_ENQUEUE,
                             EV_ISSUE, EV_LINE_RETIRE, EV_PAUSE,
                             EV_UNCORRECTABLE, EV_VERIFY_RETRY,
                             NULL_TELEMETRY, Telemetry)
from repro.telemetry.metrics import Counter, bank_metric_name


class _ControllerTelemetry:
    """Pre-resolved instrument references for the enabled-telemetry path.

    Resolving every counter once at construction keeps the per-event cost
    of *enabled* telemetry to attribute loads; the *disabled* path never
    builds this object at all and pays a single ``is not None`` check per
    instrumentation site.
    """

    def __init__(self, telemetry: Telemetry, num_banks: int) -> None:
        # Bound method, saving two attribute loads per trace record.
        self.record = telemetry.tracer.record
        metrics = telemetry.metrics
        self.reads_issued = metrics.counter("ctrl.reads_issued")
        self.writes_normal = metrics.counter("ctrl.writes_normal")
        self.writes_slow = metrics.counter("ctrl.writes_slow")
        self.eager_issued = metrics.counter("ctrl.eager_issued")
        self.cancellations = metrics.counter("ctrl.cancellations")
        self.pauses = metrics.counter("ctrl.pauses")
        self.drains = metrics.counter("ctrl.drains")
        self.drain_active = metrics.gauge("ctrl.drain_active")
        # Histogram.observe, inlined at the one site that feeds it: the
        # bucket edges and the counts list (restored in place, never
        # replaced).
        latency = metrics.histogram("ctrl.read_latency_ns")
        self.read_latency_bounds = latency.bounds
        self.read_latency_counts = latency.counts
        # Per-bank slow/normal issue mix (the Bank-Aware observable).
        # bank_metric_name keeps the naming scheme in one cached place,
        # shared with the System wear/utilization probes.
        self.bank_slow: List[Counter] = [
            metrics.counter(bank_metric_name(i, "writes_slow"))
            for i in range(num_banks)
        ]
        self.bank_normal: List[Counter] = [
            metrics.counter(bank_metric_name(i, "writes_normal"))
            for i in range(num_banks)
        ]
        # Bank-Aware (normal, slow) verdicts, indexed by the decision.
        self.bank_aware_verdicts = (
            metrics.counter("decision.bank_aware.normal",
                            from_first_bump=True),
            metrics.counter("decision.bank_aware.slow", from_first_bump=True),
        )


class ControllerStats:
    """Raw counters accumulated by the controller."""

    def __init__(self) -> None:
        self.reads_from_llc = 0
        self.writes_from_llc = 0
        self.eager_from_llc = 0
        self.reads_issued = 0
        self.read_row_hits = 0
        self.read_row_misses = 0
        self.writes_issued_normal = 0
        self.writes_issued_slow = 0
        self.eager_issued = 0            # subset of writes_issued_slow/normal
        self.writes_completed = 0
        self.reads_completed = 0
        self.cancellations = 0
        self.pauses = 0
        self.drain_events = 0
        self.drain_time_ns = 0.0
        self.read_latency_sum_ns = 0.0

    @property
    def writes_issued_total(self) -> int:
        return self.writes_issued_normal + self.writes_issued_slow

    @property
    def requests_issued_total(self) -> int:
        return self.reads_issued + self.writes_issued_total

    @property
    def avg_read_latency_ns(self) -> float:
        if self.reads_completed == 0:
            return 0.0
        return self.read_latency_sum_ns / self.reads_completed

    def reset(self) -> None:
        self.__init__()


class MemoryController:
    """ReRAM memory controller with Mellow Writes support.

    Each bank has an open-page 1 KB row buffer.  Writes are
    write-through: they never load the row buffer, and a write to the
    currently open row leaves the buffer open (the device updates it in
    place).  Reads open rows.

    All per-bank state lives in flat lists indexed by bank id, and
    nowhere else: busy-until time, open row and the in-flight operation
    (its request, issue token, pulse start, cancellable flag and resumed
    pulse progress) for the issue path, plus busy time and operation
    counts for results and telemetry.  Lines retired per bank are the
    fault injector's count (``FaultInjector.retired_per_bank``).
    docs/performance.md describes the layout.

    Each issue gets the token ``bank_ops_begun[bank] * num_banks +
    bank``, unique over the run, and its completion event carries it: a
    completion whose token is no longer the bank's in-flight token
    belongs to a cancelled attempt and is ignored, even when the same
    request has been re-issued since.
    """

    def __init__(
        self,
        events: EventQueue,
        policy: WritePolicy,
        address_map: Optional[AddressMap] = None,
        timing: Optional[MemoryTiming] = None,
        wear: Optional[WearTracker] = None,
        quota: Optional[WearQuota] = None,
        read_queue_entries: int = params.READ_QUEUE_ENTRIES,
        write_queue_entries: int = params.WRITE_QUEUE_ENTRIES,
        eager_queue_entries: int = params.EAGER_QUEUE_ENTRIES,
        drain_low: int = params.WRITE_DRAIN_LOW,
        drain_high: int = params.WRITE_DRAIN_HIGH,
        wear_scaler: Optional[Callable[[], float]] = None,
        sanitize: Optional[bool] = None,
        telemetry: Telemetry = NULL_TELEMETRY,
        faults: Optional[FaultInjector] = None,
        on_fatal: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.events = events
        self.policy = policy
        self.amap = address_map if address_map is not None else AddressMap()
        self.timing = (
            timing
            if timing is not None
            else MemoryTiming(slow_factor=policy.slow_factor)
        )
        self.wear = (
            wear
            if wear is not None
            else WearTracker(self.amap.num_banks, self.amap.blocks_per_bank)
        )
        self.quota = quota
        if policy.wear_quota and quota is None:
            raise ValueError("policy requires Wear Quota but none supplied")
        if not 0 < drain_low <= drain_high <= write_queue_entries:
            raise ValueError("need 0 < drain_low <= drain_high <= capacity")

        def clock() -> float:
            # Over the event queue, not ``self``: a closure over the
            # controller would tie every request queue into a reference
            # cycle with it.
            return events.now

        self._sanitize = resolve(sanitize)
        self._ts: Optional[_ControllerTelemetry] = (
            _ControllerTelemetry(telemetry, self.amap.num_banks)
            if telemetry.enabled else None
        )
        self._bank_aware_verdicts = (
            self._ts.bank_aware_verdicts if self._ts is not None else None)
        self.read_q = RequestQueue(read_queue_entries, "read", clock=clock,
                                   sanitize=self._sanitize,
                                   telemetry=telemetry,
                                   num_banks=self.amap.num_banks)
        self.write_q = RequestQueue(write_queue_entries, "write", clock=clock,
                                    sanitize=self._sanitize,
                                    telemetry=telemetry,
                                    num_banks=self.amap.num_banks)
        self.eager_q = RequestQueue(eager_queue_entries, "eager", clock=clock,
                                    sanitize=self._sanitize,
                                    telemetry=telemetry,
                                    num_banks=self.amap.num_banks)
        self.drain_low = drain_low
        self.drain_high = drain_high

        self.faw: List[RankFawLimiter] = [
            RankFawLimiter(self.timing.t_faw_ns, self.timing.t_faw_activates)
            for _ in range(self.amap.num_ranks)
        ]
        self.bus_free_ns = 0.0
        self.drain_mode = False
        self._drain_started_ns = 0.0
        self.stats = ControllerStats()
        # Optional per-write damage multiplier in (0, 1]; Flip-N-Write uses
        # it to model the fraction of cells actually programmed.
        self.wear_scaler = wear_scaler
        # Fault injection: the injector ages cells alongside the wear
        # tracker and arbitrates write-verify outcomes at completion;
        # on_fatal fires once when an uncorrectable error ends the run.
        self.faults = faults
        self.on_fatal = on_fatal
        self._write_space_waiters: List[Callable[[], None]] = []
        self._read_space_waiters: List[Callable[[], None]] = []
        # Wear-conservation cross-check (sanitize mode): the controller
        # keeps its own tally of write fractions it hands to the wear
        # tracker; the two independently maintained sums must always agree.
        self._wear_write_tally = 0.0
        self._wear_write_baseline = self.wear.total_writes()
        # Run-local request ids: the module-global counter in queues.py
        # carries state across simulations in one process, which would
        # make trace req_ids depend on how many runs preceded this one
        # (serial sweeps vs fresh parallel workers would emit different
        # traces for the same config).
        self._request_ids = itertools.count()
        # The queues' per-bank FIFO lists, which are never replaced: the
        # issue path tests a bank's FIFO before popping from it.
        self._read_fifos = self.read_q._fifos
        self._write_fifos = self.write_q._fifos
        self._eager_fifos = self.eager_q._fifos

        # Geometry and timing constants hoisted onto the controller: the
        # issue path reads them on every request.
        self._num_banks = self.amap.num_banks
        self._banks_per_rank = self.amap.banks_per_rank
        self._blocks_per_row = self.amap.blocks_per_row
        self._t_rcd = self.timing.t_rcd_ns
        self._t_cas = self.timing.t_cas_ns
        self._burst = self.timing.burst_ns
        self._t_wp = self.timing.t_wp_normal_ns
        self._cancel_penalty = self.timing.cancel_penalty_ns
        self._pausing = policy.pausing
        self._cancel_normal = policy.cancel_normal
        self._cancel_slow = policy.cancel_slow
        # Write-verify retries re-issue on the Mellow Writes slow path
        # regardless of policy (see _issue_write).
        self._retry_factor = self.timing.slow_factor
        # The Figure-9 decision tree degenerates to a constant for the
        # static policies; only Bank-Aware / Wear-Quota / multi-latency
        # policies need the per-write queue probes.
        if policy.all_slow:
            self._static_write_factor: Optional[float] = policy.slow_factor
        elif policy.bank_aware or policy.wear_quota or policy.multi_latency:
            self._static_write_factor = None
        else:
            self._static_write_factor = 1.0
        # Eager writes never consult queue occupancy (Figure 9's rightmost
        # leaf), so their factor is always static.
        self._eager_factor = policy.slow_factor if policy.eager_slow else 1.0
        # damage_per_write(factor) is a pure function of the factor; cache
        # the handful of distinct factors a run can use.
        self._damage_by_factor: Dict[float, float] = {}
        # Flat bank state, indexed by bank id.  The issue path reads and
        # writes the busy-until time, the open row and the in-flight
        # columns; results and telemetry probes read the busy time (this
        # window) and the lifetime operation counts.  A busy bank's
        # busy-until time is its operation's finish.  An idle bank's
        # request is None and its token -1; its other in-flight columns
        # keep the last operation's values.
        self._bank_busy_until: List[float] = [0.0] * self._num_banks
        self._bank_open_row: List[Optional[int]] = [None] * self._num_banks
        self._bank_in_flight: List[Optional[Request]] = (
            [None] * self._num_banks)
        self._bank_token: List[int] = [-1] * self._num_banks
        self._bank_pulse_start: List[float] = [0.0] * self._num_banks
        self._bank_cancellable: List[bool] = [False] * self._num_banks
        self._bank_resumed: List[float] = [0.0] * self._num_banks
        self.bank_busy_ns: List[float] = [0.0] * self._num_banks
        self.bank_ops_begun: List[int] = [0] * self._num_banks
        self.bank_ops_cancelled: List[int] = [0] * self._num_banks

    # ------------------------------------------------------------------
    # Submission API (called by the LLC / CPU side)
    # ------------------------------------------------------------------

    def _new_request(self, kind: str, block: int, now: float,
                     callback: Optional[Callable[[float], None]]) -> Request:
        """Build a request with its location decoded inline."""
        num_banks = self._num_banks
        bank = block % num_banks
        # Positional Request construction (field order: kind, block, bank,
        # rank, row, arrival_ns, callback, attempts, retries, speed_factor,
        # progress_ns, req_id) - kwargs cost measurably on this path.
        return Request(
            kind, block, bank, bank // self._banks_per_rank,
            block // num_banks // self._blocks_per_row, now, callback,
            0, 0, 1.0, 0.0, next(self._request_ids),
        )

    def submit_read(self, block: int,
                    callback: Optional[Callable[[float], None]] = None,
                    ) -> bool:   # simlint: hotpath
        """Enqueue a demand read; returns False if the read queue is full.

        A read for a bank busy with a cancellable write may cancel (or
        pause) that write; see :meth:`_cancel_for_read`.
        """
        read_q = self.read_q
        if read_q._size >= read_q.capacity:
            return False
        now = self.events.now
        request = self._new_request(READ, block, now, callback)
        read_q.push(request, now)
        self.stats.reads_from_llc += 1
        bank = request.bank
        ts = self._ts
        if ts is not None:
            ts.record(now, EV_ENQUEUE, bank, block, request.req_id,
                      0.0, READ)
        if self._bank_in_flight[bank] is None:
            if now >= self._bank_busy_until[bank]:
                self._try_issue_bank(bank)
        elif (self._bank_cancellable[bank] and not self.drain_mode
              and now < self._bank_busy_until[bank]):
            self._cancel_for_read(bank, now)
        return True

    def submit_write(self, block: int,
                     callback: Optional[Callable[[float], None]] = None,
                     ) -> bool:   # simlint: hotpath
        """Enqueue a writeback; returns False if the write queue is full."""
        write_q = self.write_q
        if write_q._size >= write_q.capacity:
            return False
        now = self.events.now
        request = self._new_request(WRITE, block, now, callback)
        write_q.push(request, now)
        self.stats.writes_from_llc += 1
        bank = request.bank
        ts = self._ts
        if ts is not None:
            ts.record(now, EV_ENQUEUE, bank, block, request.req_id,
                      0.0, WRITE)
        if not self.drain_mode and write_q._size >= self.drain_high:
            self._enter_drain()
        elif (self._bank_in_flight[bank] is None
              and now >= self._bank_busy_until[bank]):
            self._try_issue_bank(bank)
        return True

    def submit_eager(self, block: int,
                     callback: Optional[Callable[[float], None]] = None,
                     ) -> bool:   # simlint: hotpath
        """Enqueue an eager mellow writeback; False if its queue is full."""
        eager_q = self.eager_q
        if eager_q._size >= eager_q.capacity:
            return False
        now = self.events.now
        request = self._new_request(EAGER, block, now, callback)
        eager_q.push(request, now)
        self.stats.eager_from_llc += 1
        bank = request.bank
        ts = self._ts
        if ts is not None:
            ts.record(now, EV_ENQUEUE, bank, block, request.req_id,
                      0.0, EAGER)
        if (self._bank_in_flight[bank] is None
                and now >= self._bank_busy_until[bank]):
            self._try_issue_bank(bank)
        return True

    def wait_for_write_space(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once the write queue can accept a request."""
        if not self.write_q.full:
            callback()
        else:
            self._write_space_waiters.append(callback)

    def wait_for_read_space(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once the read queue can accept a request."""
        if not self.read_q.full:
            callback()
        else:
            self._read_space_waiters.append(callback)

    @property
    def eager_queue_has_space(self) -> bool:
        return not self.eager_q.full

    # ------------------------------------------------------------------
    # Drain mode
    # ------------------------------------------------------------------

    def _enter_drain(self) -> None:
        self.drain_mode = True
        self._drain_started_ns = self.events.now
        self.stats.drain_events += 1
        ts = self._ts
        if ts is not None:
            ts.drains.value += 1.0
            ts.drain_active.set(1.0)
            ts.record(
                self.events.now, EV_DRAIN_ENTER, -1, -1, -1, 0.0,
                f"write_q={len(self.write_q)}")
        for bank_index in range(self._num_banks):
            self._try_issue_bank(bank_index)

    def _maybe_exit_drain(self) -> None:
        if self.drain_mode and len(self.write_q) <= self.drain_low:
            self.drain_mode = False
            self.stats.drain_time_ns += self.events.now - self._drain_started_ns
            ts = self._ts
            if ts is not None:
                ts.drain_active.set(0.0)
                ts.record(
                    self.events.now, EV_DRAIN_EXIT, -1, -1, -1, 0.0,
                    f"write_q={len(self.write_q)}")
            for bank_index in range(self._num_banks):
                self._try_issue_bank(bank_index)

    # ------------------------------------------------------------------
    # Write cancellation
    # ------------------------------------------------------------------

    def _cancel_for_read(self, bank_index: int, now: float) -> None:
        """Cancel (or pause) the in-flight write when a read arrives.

        The caller (:meth:`submit_read`) has already established the
        guards: not in drain mode, an in-flight cancellable operation,
        bank busy.  The victim write returns to the head of its queue and
        its partial cell stress is recorded as fractional wear.
        """
        request = self._bank_in_flight[bank_index]
        assert request is not None, "cancel on an idle bank"
        pulse_ns = self._t_wp * request.speed_factor
        elapsed = now - self._bank_pulse_start[bank_index]
        if elapsed < 0.0:
            elapsed = 0.0
        elif elapsed > pulse_ns:
            elapsed = pulse_ns
        fraction = elapsed / pulse_ns
        pausing = self._pausing
        if not pausing and fraction >= params.CANCEL_THRESHOLD:
            return  # too far along; cancelling would waste a near-full pulse
        victim_queue = self.eager_q if request.kind == EAGER else self.write_q
        if victim_queue._size >= victim_queue.capacity:
            return  # nowhere to put the victim; let the write finish
        self.bank_busy_ns[bank_index] -= max(
            0.0, self._bank_busy_until[bank_index] - now)
        self._bank_in_flight[bank_index] = None
        self._bank_token[bank_index] = -1
        self.bank_ops_cancelled[bank_index] += 1
        # Partial cell stress: fraction of the programming pulse completed.
        if fraction > 0.0:
            self._record_wear(request, fraction)
        if pausing:
            # Write pausing keeps the completed pulse time; the eventual
            # resume only pays (and only wears) the remainder.
            self.stats.pauses += 1
            request.progress_ns = self._bank_resumed[bank_index] + elapsed
        else:
            self.stats.cancellations += 1
            request.progress_ns = 0.0
        ts = self._ts
        if ts is not None:
            if pausing:
                ts.pauses.value += 1.0
            else:
                ts.cancellations.value += 1.0
            ts.record(
                now, EV_PAUSE if pausing else EV_CANCEL,
                bank_index, request.block, request.req_id,
                request.speed_factor,
                f"{request.kind} progress={fraction:.3f}")
        victim_queue.push_front(request)
        # tiny turnaround penalty before the bank can accept the read
        busy = now + self._cancel_penalty
        self._bank_busy_until[bank_index] = busy
        self.events.schedule(busy, self._try_issue_bank, bank_index)

    # ------------------------------------------------------------------
    # Issue logic
    # ------------------------------------------------------------------

    def _try_issue_bank(self, bank_index: int) -> None:   # simlint: hotpath
        """Issue the next request for an idle bank, if it has one.

        A bank is free only when no operation is outstanding AND any
        cancel-penalty window has elapsed.  Checking the busy-until time
        alone is not enough: at the exact finish time another event can
        run before the completion event, and issuing then would overwrite
        the in-flight operation and lose its completion callback.

        Per bank, reads go before writes and writes before eager
        requests; write drain stalls reads system-wide until the queue
        empties to ``drain_low`` - this global turnaround is what makes
        drains "an expensive memory operation" (Section VI-C).
        """
        if self._bank_in_flight[bank_index] is not None:
            return
        now = self.events.now
        if now < self._bank_busy_until[bank_index]:
            return
        # Each FIFO is tested before its pop: an idle bank mostly has
        # nothing queued, and a list index is cheaper than a call.
        if self.drain_mode:
            if not self._write_fifos[bank_index]:
                return
            request = self.write_q.try_pop_bank(bank_index, now)
        elif self._read_fifos[bank_index]:
            request = self.read_q.try_pop_bank(bank_index, now)
        elif self._write_fifos[bank_index]:
            request = self.write_q.try_pop_bank(bank_index, now)
        elif self._eager_fifos[bank_index]:
            request = self.eager_q.try_pop_bank(bank_index, now)
        else:
            return
        assert request is not None, "a tested FIFO popped nothing"
        if request.kind != READ:
            self._issue_write(bank_index, request, now)
            return
        stats = self.stats
        row = request.row
        if self._bank_open_row[bank_index] == row:
            stats.read_row_hits += 1
            ready = now
            detail = "read"
        else:
            ready = (self.faw[bank_index // self._banks_per_rank]
                     .activate(now) + self._t_rcd)
            self._bank_open_row[bank_index] = row
            stats.read_row_misses += 1
            detail = "read miss"
        # Reserve the shared data bus for the burst.
        burst = self._burst
        start = ready + self._t_cas
        if start < self.bus_free_ns:
            start = self.bus_free_ns
        self.bus_free_ns = start + burst
        finish = start + burst
        request.attempts += 1
        stats.reads_issued += 1
        ts = self._ts
        if ts is not None:
            ts.reads_issued.value += 1.0
            ts.record(now, EV_ISSUE, bank_index, request.block,
                      request.req_id, 0.0, detail)
        begun = self.bank_ops_begun[bank_index] + 1
        self.bank_ops_begun[bank_index] = begun
        token = begun * self._num_banks + bank_index
        self._bank_in_flight[bank_index] = request
        self._bank_token[bank_index] = token
        self._bank_cancellable[bank_index] = False
        self._bank_busy_until[bank_index] = finish
        self.bank_busy_ns[bank_index] += finish - now
        if self._read_space_waiters:
            self._notify_read_space()
        self.events.schedule(finish, self._complete_read, token)

    def _issue_write(self, bank_index: int, request: Request,
                     now: float) -> None:   # simlint: hotpath
        """Start a write or eager request on an idle bank.

        The write speed is chosen here by the Figure-9 decision tree,
        except for a resumed (paused) write, whose speed is committed,
        and a write-verify retry, which always runs slow.
        """
        progress = request.progress_ns
        if progress > 0.0:
            # Resuming a paused write: the pulse speed is committed; only
            # the remaining pulse time is paid.
            factor = request.speed_factor
        else:
            if request.retries:
                # Write-verify retry: a longer pulse is the device's best
                # shot at programming marginal cells (and wears them least).
                factor = self._retry_factor
            elif request.kind == EAGER:
                factor = self._eager_factor
            else:
                static = self._static_write_factor
                if static is not None:
                    factor = static
                else:
                    factor = choose_write_factor(
                        self.policy,
                        kind=request.kind,
                        other_writes_for_bank=self.write_q.count_bank(
                            bank_index),
                        reads_for_bank=self.read_q.count_bank(bank_index),
                        quota_exceeded=(
                            self.quota.is_slow_only(bank_index)
                            if self.quota else False
                        ),
                        verdicts=self._bank_aware_verdicts,
                    )
            request.speed_factor = factor
        slow = factor > 1.0
        request.attempts += 1
        burst = self._burst
        start = now
        if start < self.bus_free_ns:
            start = self.bus_free_ns
        self.bus_free_ns = start + burst
        pulse_start = start + burst
        remaining = self._t_wp * factor - progress
        if remaining < 0.0:
            remaining = 0.0
        finish = pulse_start + remaining
        stats = self.stats
        if slow:
            stats.writes_issued_slow += 1
        else:
            stats.writes_issued_normal += 1
        eager = request.kind == EAGER
        if eager:
            stats.eager_issued += 1
        ts = self._ts
        if ts is not None:
            if slow:
                ts.writes_slow.value += 1.0
                ts.bank_slow[bank_index].value += 1.0
            else:
                ts.writes_normal.value += 1.0
                ts.bank_normal[bank_index].value += 1.0
            if eager:
                ts.eager_issued.value += 1.0
            ts.record(now, EV_ISSUE, bank_index, request.block,
                      request.req_id, factor, request.kind)
        begun = self.bank_ops_begun[bank_index] + 1
        self.bank_ops_begun[bank_index] = begun
        token = begun * self._num_banks + bank_index
        self._bank_in_flight[bank_index] = request
        self._bank_token[bank_index] = token
        self._bank_pulse_start[bank_index] = pulse_start
        self._bank_cancellable[bank_index] = (
            self._cancel_slow if slow else self._cancel_normal)
        self._bank_resumed[bank_index] = progress
        self._bank_busy_until[bank_index] = finish
        self.bank_busy_ns[bank_index] += finish - now
        if not eager:
            if self._write_space_waiters:
                self._notify_write_space()
            if self.drain_mode and self.write_q._size <= self.drain_low:
                self._maybe_exit_drain()
        self.events.schedule(finish, self._complete_write, token)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete_read(self, token: int) -> None:   # simlint: hotpath
        bank_index = token % self._num_banks
        if self._bank_token[bank_index] != token:
            # Stale completion for a cancelled/replaced operation; the bank
            # may still be idle with queued work, so poke it.
            self._try_issue_bank(bank_index)
            return
        request = self._bank_in_flight[bank_index]
        assert request is not None, "in-flight token without a request"
        self._bank_in_flight[bank_index] = None
        self._bank_token[bank_index] = -1
        now = self.events.now
        stats = self.stats
        stats.reads_completed += 1
        latency = now - request.arrival_ns
        stats.read_latency_sum_ns += latency
        ts = self._ts
        if ts is not None:
            ts.read_latency_counts[
                bisect_left(ts.read_latency_bounds, latency)] += 1
            ts.record(now, EV_COMPLETE, bank_index, request.block,
                      request.req_id, 0.0, READ)
        callback = request.callback
        if callback is not None:
            callback(now)
        self._try_issue_bank(bank_index)

    def _complete_write(self, token: int) -> None:   # simlint: hotpath
        bank_index = token % self._num_banks
        if self._bank_token[bank_index] != token:
            # The write was cancelled; a fresh issue will complete it.  The
            # bank may be idle with queued work, so poke it.
            self._try_issue_bank(bank_index)
            return
        request = self._bank_in_flight[bank_index]
        assert request is not None, "in-flight token without a request"
        self._bank_in_flight[bank_index] = None
        self._bank_token[bank_index] = -1
        self.stats.writes_completed += 1
        resumed = self._bank_resumed[bank_index]
        if resumed > 0.0:
            # A resumed write already deposited wear for its paused
            # portions; charge only the remainder executed this attempt.
            fraction = 1.0 - resumed / (self._t_wp * request.speed_factor)
            if fraction < 0.0:
                fraction = 0.0
            self._record_wear(request, fraction)
        else:
            self._record_wear(request, 1.0)
        now = self.events.now
        ts = self._ts
        if ts is not None:
            ts.record(now, EV_COMPLETE, bank_index, request.block,
                      request.req_id, request.speed_factor, request.kind)
        faults = self.faults
        if faults is not None:
            outcome = faults.verify_write(
                request.bank, request.block // self._num_banks,
                request.retries)
            if outcome != WRITE_OK and self._handle_fault_outcome(
                    bank_index, request, outcome, now):
                # Re-issued as a verify retry: completion (and the
                # callback) is deferred until the retry finishes.
                return
        callback = request.callback
        if callback is not None:
            callback(now)
        self._try_issue_bank(bank_index)

    def _handle_fault_outcome(self, bank_index: int, request: Request,
                              outcome: str, now: float) -> bool:
        """Apply a non-OK write-verify outcome; True = write re-issued."""
        ts = self._ts
        if outcome == WRITE_RETRY:
            request.retries += 1
            request.progress_ns = 0.0
            if ts is not None:
                ts.record(
                    now, EV_VERIFY_RETRY, bank_index, request.block,
                    request.req_id, request.speed_factor,
                    f"retry={request.retries}")
            # The bank just freed up, so the retry starts immediately -
            # no queue round trip, which also means a full write queue
            # can never strand a retry.
            self._issue_write(bank_index, request, now)
            return True
        if outcome == WRITE_RETIRED:
            # The injector has counted the line (retired_per_bank).
            if ts is not None:
                ts.record(
                    now, EV_LINE_RETIRE, bank_index, request.block,
                    request.req_id, 0.0, request.kind)
        elif outcome == WRITE_FATAL:
            if ts is not None:
                ts.record(
                    now, EV_UNCORRECTABLE, bank_index, request.block,
                    request.req_id, 0.0, request.kind)
            if self.on_fatal is not None:
                self.on_fatal(now)
        # WRITE_CORRECTED needs no controller action: the injector has
        # already counted it, and ECC repaired the line in place.
        return False

    def _record_wear(self, request: Request,
                     fraction: float) -> None:   # simlint: hotpath
        """Deposit ``fraction`` of one write's cell stress everywhere it
        is tracked: the wear tracker, Wear Quota and the fault injector."""
        factor = request.speed_factor
        if self.wear_scaler is not None:
            fraction *= self.wear_scaler()
        bank = request.bank
        local = request.block // self._num_banks
        self.wear.record_write(bank, factor, local, fraction)
        if self._sanitize:
            self._wear_write_tally += fraction
            expected = self._wear_write_baseline + self._wear_write_tally
            recorded = self.wear.total_writes()
            check(
                close_enough(expected, recorded), "wear-conservation",
                "controller-issued write fractions and per-bank wear "
                "records disagree",
                controller_total=expected, wear_total=recorded,
                bank=bank, block=request.block,
            )
        quota = self.quota
        if quota is not None:
            damage = self._damage_by_factor.get(factor)
            if damage is None:
                damage = self.wear.model.damage_per_write(factor)
                self._damage_by_factor[factor] = damage
            quota.record_wear(bank, damage * fraction)
        faults = self.faults
        if faults is not None:
            newly_dead = faults.record_damage(bank, local, factor, fraction)
            if newly_dead and self._ts is not None:
                self._ts.record(
                    self.events.now, EV_CELL_FAIL, bank, request.block,
                    request.req_id, factor, f"cells={newly_dead}")

    def _notify_write_space(self) -> None:
        while self._write_space_waiters and not self.write_q.full:
            self._write_space_waiters.pop(0)()

    def _notify_read_space(self) -> None:
        while self._read_space_waiters and not self.read_q.full:
            self._read_space_waiters.pop(0)()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def drain_fraction(self, window_ns: float) -> float:
        """Fraction of time spent in write-drain mode over ``window_ns``."""
        if window_ns <= 0:
            return 0.0
        total = self.stats.drain_time_ns
        if self.drain_mode:
            total += self.events.now - self._drain_started_ns
        return total / window_ns

    def reset_statistics(self) -> None:
        """Clear stats and utilization counters (end of warmup)."""
        self.stats.reset()
        # Charge only the remaining busy time to the new window.
        now = self.events.now
        self.bank_busy_ns[:] = [
            0.0 if request is None else max(0.0, finish - now)
            for request, finish in zip(self._bank_in_flight,
                                       self._bank_busy_until)]
        if self.drain_mode:
            self._drain_started_ns = self.events.now
        for queue in (self.read_q, self.write_q, self.eager_q):
            queue.reset_depth_statistics()
        # Re-anchor the wear-conservation cross-check: the caller may zero
        # the wear records around this reset, so re-read the actual total.
        self._wear_write_tally = 0.0
        self._wear_write_baseline = self.wear.total_writes()
