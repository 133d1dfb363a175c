"""Top-level simulated system: core + LLC + memory controller + wear.

``System(config).run()`` executes one measurement window and returns a
:class:`~repro.sim.stats.RunResult`.  The flow is the paper's: warm the LLC
(the stand-in for the 6B-instruction warmup), reset every statistic, then
simulate the measurement window in detail and derive IPC, lifetime,
utilization, drain time, request breakdowns and energy.
"""

from __future__ import annotations

import json
import random
import sys
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro import params
from repro.cache.llc import LastLevelCache
from repro.core.wear_quota import WearQuota
from repro.cpu.core import SimpleCore
from repro.endurance.model import EnduranceModel
from repro.endurance.wear import WearTracker
from repro.energy.nvsim import LineEnergyModel
from repro.sim.sanitize import check, env_enabled
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.memory.timing import MemoryTiming
from repro.sim.config import SimConfig
from repro.sim.events import EventQueue
from repro.sim.stats import RunResult
from repro.telemetry import EV_PHASE, NULL_TELEMETRY, Telemetry
from repro.workloads.profiles import WorkloadProfile, get_profile

if TYPE_CHECKING:
    from repro.endurance.flipnwrite import FlipNWrite
    from repro.faults.injector import FaultInjector
    from repro.memory.drambuffer import DramWriteBuffer
    from repro.workloads.mix import WorkloadMix


class DeadlockError(RuntimeError):
    """The event queue drained while the core still had work to do."""


def _resolve_workload(name: str) -> Union[WorkloadProfile, "WorkloadMix"]:
    """A workload is either a Table IV profile or a multiprogrammed mix."""
    try:
        return get_profile(name)
    except KeyError:
        from repro.workloads.mix import get_mix
        return get_mix(name)


class System:
    def __init__(self, config: SimConfig) -> None:
        self.config = config
        policy = config.write_policy
        self.policy = policy
        profile = _resolve_workload(config.workload)
        self.profile = profile

        # The runtime sanitizer is armed per-run by SimConfig.sanitize or
        # process-wide by REPRO_SANITIZE=1; either source arms every
        # component of this system.
        self.sanitize = config.sanitize or env_enabled()
        # Telemetry is constructed before the event queue; its clock is a
        # lazy closure over the ``events`` local assigned just below, so
        # the order does not matter at sample time (and the clock holds
        # no reference to this system).  Like the sanitizer it is
        # observe-only: it never draws randomness or schedules events, so
        # traced runs are bit-identical to untraced ones.

        def clock() -> float:
            return events.now

        self.telemetry: Telemetry = (
            Telemetry(
                num_banks=config.num_banks,
                clock=clock,
                trace_capacity=config.telemetry_trace_capacity,
            )
            if config.telemetry else NULL_TELEMETRY
        )
        events = self.events = EventQueue(sanitize=self.sanitize,
                                          telemetry=self.telemetry)
        self.amap = AddressMap(
            num_banks=config.num_banks,
            num_ranks=config.num_ranks,
        )
        self.timing = MemoryTiming(slow_factor=config.slow_factor)
        self.endurance = EnduranceModel(expo_factor=config.expo_factor)
        self.wear = WearTracker(
            num_banks=config.num_banks,
            blocks_per_bank=self.amap.blocks_per_bank,
            model=self.endurance,
            sanitize=self.sanitize,
        )
        self.quota: Optional[WearQuota] = None
        if policy.wear_quota:
            self.quota = WearQuota(
                num_banks=config.num_banks,
                blocks_per_bank=self.amap.blocks_per_bank,
                target_lifetime_years=config.target_lifetime_years,
                period_ns=config.sample_period_ns,
                telemetry=self.telemetry,
            )
        self.llc = LastLevelCache(
            size_bytes=config.llc_size_bytes,
            assoc=config.llc_assoc,
            sample_period_ns=config.sample_period_ns,
            rng=random.Random(config.seed * 7919 + 13),
            eager_selector=config.eager_selector,
            telemetry=self.telemetry,
        )
        self.flip_n_write: Optional[FlipNWrite] = None
        if config.flip_n_write:
            from repro.endurance import flipnwrite
            self.flip_n_write = flipnwrite.FlipNWrite(
                rng=random.Random(config.seed * 104729 + 7),
            )
        self.faults: Optional[FaultInjector] = None
        if config.faults is not None:
            from repro.faults import injector
            # Derive the fault stream's seed from the run seed plus the
            # fault parameters, the same crc32-of-canonical-JSON idiom the
            # workload generators use: stable across processes (SIM001)
            # and decoupled from the LLC/Flip-N-Write streams.
            material = json.dumps(
                ["faults", config.seed, list(config.faults.key())])
            self.faults = injector.FaultInjector(
                config=config.faults,
                num_banks=config.num_banks,
                model=self.endurance,
                rng=random.Random(zlib.crc32(material.encode())),
                clock=clock,
            )
        self.controller = MemoryController(
            events=self.events,
            policy=policy,
            address_map=self.amap,
            timing=self.timing,
            wear=self.wear,
            quota=self.quota,
            wear_scaler=(
                self.flip_n_write.sample_line_fraction
                if self.flip_n_write is not None else None
            ),
            sanitize=self.sanitize,
            telemetry=self.telemetry,
            faults=self.faults,
            on_fatal=self._on_fault_fatal if self.faults is not None else None,
        )
        self.dram_buffer: Optional[DramWriteBuffer] = None
        if config.dram_buffer_entries > 0:
            from repro.memory import drambuffer
            self.dram_buffer = drambuffer.DramWriteBuffer(config.dram_buffer_entries)
        self._trace = profile.trace(config.seed)
        self.core = SimpleCore(
            events=self.events,
            llc=self.llc,
            controller=self.controller,
            trace=self._trace,
            base_cpi=profile.base_cpi,
            on_access=self._on_access,
            writeback_sink=(
                self._buffered_writeback if self.dram_buffer is not None
                else None
            ),
            sanitize=self.sanitize,
        )
        self._measure_start_ns: Optional[float] = None
        self._measure_end_ns: Optional[float] = None
        self._accesses_at_last_scan = 0
        self._done = False
        self._paused = False
        # Next accesses_processed threshold to pause at for checkpointing
        # (None = never pause); advanced by checkpoint_every per pause.
        self._pause_at: Optional[int] = config.checkpoint_every
        if self.telemetry.enabled:
            self._register_probes()

    def _register_probes(self) -> None:
        """Attach the epoch-sampled probes that read existing state.

        Probes run only when a sample is taken (once per 500 us epoch), so
        none of this adds work to the simulation hot paths.  Registration
        itself is O(banks) per System *construction* - one probe object and
        one (cached) :func:`bank_metric_name` lookup per bank, never
        per-event and never per-sample beyond the probe call itself.
        """
        from repro.telemetry.metrics import bank_metric_name

        tel = self.telemetry
        metrics = tel.metrics
        ctrl = self.controller
        metrics.probe("queue.read.depth", lambda: float(len(ctrl.read_q)))
        metrics.probe("queue.write.depth", lambda: float(len(ctrl.write_q)))
        metrics.probe("queue.eager.depth", lambda: float(len(ctrl.eager_q)))
        metrics.probe("queue.read.peak",
                      lambda: float(ctrl.read_q.epoch_peak_depth()))
        metrics.probe("queue.write.peak",
                      lambda: float(ctrl.write_q.epoch_peak_depth()))
        metrics.probe("queue.eager.peak",
                      lambda: float(ctrl.eager_q.epoch_peak_depth()))
        metrics.probe("wear.total_writes",
                      lambda: float(self.wear.total_writes()))
        ops_begun = ctrl.bank_ops_begun
        ops_cancelled = ctrl.bank_ops_cancelled
        for index in range(len(ops_begun)):
            metrics.probe(bank_metric_name(index, "ops_begun"),
                          lambda i=index: float(ops_begun[i]))
            metrics.probe(bank_metric_name(index, "ops_cancelled"),
                          lambda i=index: float(ops_cancelled[i]))
        tel.set_wear_probe(self.wear.bank_damages)
        injector = self.faults
        if injector is not None:
            stats = injector.stats
            metrics.probe("faults.cells_failed",
                          lambda: float(stats.cells_failed))
            metrics.probe("faults.write_retries",
                          lambda: float(stats.write_retries))
            metrics.probe("faults.corrected_writes",
                          lambda: float(stats.corrected_writes))
            metrics.probe("faults.lines_retired",
                          lambda: float(stats.lines_retired))
            metrics.probe("faults.spare_lines_left",
                          lambda: float(injector.total_spares_left()))
            # Closes over the list, not the injector: the heatmap keeps
            # its probe past release() (its presence shapes the bundle).
            retired = injector.retired_per_bank
            for index in range(len(retired)):
                metrics.probe(bank_metric_name(index, "lines_retired"),
                              lambda i=index: float(retired[i]))
            tel.set_retired_probe(lambda: [float(n) for n in retired])

    # ------------------------------------------------------------------
    # DRAM write buffer
    # ------------------------------------------------------------------

    def _buffered_writeback(self, block: int) -> bool:
        """Route an LLC writeback through the DRAM coalescing buffer.

        Hits and non-full inserts absorb instantly (DRAM latency is
        negligible next to resistive write pulses); a full buffer drains
        its LRU entry into the controller, which applies normal write-queue
        backpressure.
        """
        buffer = self.dram_buffer
        assert buffer is not None, "writeback sink wired without a buffer"
        if buffer.contains(block) or not buffer.full:
            buffer.insert(block)
            return True
        if self.controller.write_q.full:
            return False
        drained = buffer.insert(block)
        self.controller.submit_write(drained)
        return True

    # ------------------------------------------------------------------
    # Periodic machinery
    # ------------------------------------------------------------------

    def _sample_tick(self, _arg: None) -> None:
        if self._done:
            return
        # Telemetry closes its epoch BEFORE the profiler counters reset,
        # so the sampled llc.stack_hits.* probes capture this epoch's own
        # hit counts.  The quota gauge set by the *previous* start_period
        # is likewise sampled here, describing the epoch it governed.
        if self.telemetry.enabled:
            self.telemetry.sample_epoch(self.events.now)
        self.llc.end_sample_period()
        if self.quota is not None:
            self.quota.start_period()
        self.events.schedule_in(self.config.sample_period_ns, self._sample_tick)

    def _eager_tick(self, _arg: None) -> None:
        if self._done:
            return
        # Section IV-B1: candidates are chosen on *idle* LLC cycles.  Gate
        # the scan on recent LLC activity: a cache fielding a demand access
        # nearly every cycle (e.g. hmmer's hot loop) has no idle slots to
        # volunteer eager writebacks from.
        delta = self.core.accesses_processed - self._accesses_at_last_scan
        self._accesses_at_last_scan = self.core.accesses_processed
        busy = delta > params.EAGER_IDLE_MAX_ACCESSES
        if not busy and self.controller.eager_queue_has_space:
            block = self.llc.pick_eager_candidate()
            if block is not None:
                self.controller.submit_eager(block)
        self.events.schedule_in(
            self.config.eager_scan_interval_ns, self._eager_tick,
        )

    def _on_access(self, count: int) -> None:
        if count == self.config.warmup_accesses and self._measure_start_ns is None:
            self._end_warmup()
        elif (self._measure_start_ns is not None
              and count >= self.config.measure_accesses):
            self._measure_end_ns = self.events.now
            self._done = True
            # The core reads the stop too and schedules its next gap
            # event, so the run ends at a clean event boundary.
            self.events.stop = True
        elif self._pause_at is not None and count >= self._pause_at:
            # Checkpoint boundary: the same stop.  The scheduled gap may
            # take one sequence number an unpaused run would not - a
            # uniform offset on all later events that cannot reorder
            # same-time ties, so sliced runs stay bit-identical to
            # straight-through ones.
            self._paused = True
            self.events.stop = True
        self._arm_access_limit()

    def _arm_access_limit(self) -> None:
        """Publish the next access count at which :meth:`_on_access` has
        work: the end of warm-up, the end of the window or the next
        checkpoint pause.  The core reports no access before it.  A
        limit at or below the current count reports every access, as
        the stop branches need once they have fired."""
        config = self.config
        limit = (config.warmup_accesses if self._measure_start_ns is None
                 else config.measure_accesses)
        pause_at = self._pause_at
        if pause_at is not None and pause_at < limit:
            limit = pause_at
        self.core.access_limit = limit

    def _on_fault_fatal(self, now: float) -> None:
        """An uncorrectable error: end the run gracefully at ``now``.

        The measurement window is closed where the failure happened, so
        :meth:`_collect` still produces a full RunResult - with
        ``uncorrectable`` set and the terminal time recorded - instead
        of the run crashing.  A failure during timed warmup anchors the
        window at time zero so the window stays non-empty.
        """
        if self._done:
            return
        if self._measure_start_ns is None:
            self._measure_start_ns = 0.0
        self._measure_end_ns = now
        self._done = True
        self.events.stop = True
        self._arm_access_limit()

    def _end_warmup(self) -> None:
        self._measure_start_ns = self.events.now
        if self.telemetry.enabled:
            self.telemetry.tracer.record(
                self.events.now, EV_PHASE, detail="measure_start")
        self.llc.reset_statistics()
        # Zero the wear tallies before the controller reset so the
        # controller re-anchors its wear-conservation cross-check against
        # the already-cleared records.
        self.wear.reset_records()
        self.controller.reset_statistics()
        self.core.mark_counters_reset()
        if self.quota is not None:
            self.quota.reset_statistics()
        if self.dram_buffer is not None:
            self.dram_buffer.stats = type(self.dram_buffer.stats)()

    # ------------------------------------------------------------------

    def _functional_warmup(self) -> int:
        """Pre-fill the LLC by replaying the trace without timing.

        Low-MPKI workloads (hmmer) would need hundreds of thousands of
        *timed* accesses before the LLC fills and writebacks start flowing;
        replaying the head of the trace functionally (cache state only, no
        memory events) gets every workload to a steady-state cache at a
        fraction of the cost - the same trick gem5 users play with
        functional warming.  Returns the number of accesses consumed.
        """
        config = self.config
        llc = self.llc
        cache = llc.cache
        capacity = cache.num_sets * cache.assoc
        target = int(capacity * params.FUNCTIONAL_WARMUP_OCCUPANCY)
        maximum = config.functional_warmup_max
        trace = self._trace
        # Keep the DRAM write buffer warm too: at steady state it is full,
        # so a short measurement window must not start from an empty
        # (drain-free) buffer.
        buffer = self.dram_buffer
        on_dirty_victim = buffer.insert if buffer is not None else None
        consumed = 0
        exhausted = False
        while consumed < maximum and not exhausted:
            # Every 8192 records, stop once the cache has reached its
            # target occupancy and the DRAM buffer (when present) is full.
            if cache.occupancy() >= target and (
                    buffer is None or buffer.full):
                break
            chunk = maximum - consumed
            if chunk > 8192:
                chunk = 8192
            done, exhausted = llc.warm_chunk(trace, chunk, on_dirty_victim)
            consumed += done
        llc.reset_statistics()
        if buffer is not None:
            buffer.stats = type(buffer.stats)()
        return consumed

    def run(self, max_events: int = 200_000_000) -> RunResult:
        """Simulate warmup + measurement and return the results."""
        self.start_run()
        return self.finish_run(max_events)

    def start_run(self, warm: Optional[Dict[str, Any]] = None) -> None:
        """Warm up and arm the event loop (first phase of :meth:`run`).

        Split out so checkpointing callers can alternate
        :meth:`continue_run` with snapshot captures; plain callers just
        use :meth:`run`.  ``warm`` is a
        :func:`~repro.checkpoint.capture_warm` state taken from a system
        whose config has the same :meth:`SimConfig.warm_key`; restoring
        it replaces :meth:`_functional_warmup` and leaves this system in
        exactly the state its own warm-up would have.
        """
        if warm is None:
            self._functional_warmup()
        else:
            # Local import: repro.checkpoint imports this module.
            from repro.checkpoint.codec import restore_warm
            restore_warm(self, warm)
        self.core.start()
        if self.telemetry.enabled:
            self.telemetry.tracer.record(
                self.events.now, EV_PHASE, detail="run_start")
        self.events.schedule_in(self.config.sample_period_ns, self._sample_tick)
        if self.policy.eager:
            self.events.schedule_in(
                self.config.eager_scan_interval_ns, self._eager_tick,
            )
        if self.config.warmup_accesses == 0:
            self._end_warmup()
        self._arm_access_limit()

    def continue_run(self, max_events: int = 200_000_000
                     ) -> Optional[RunResult]:
        """Drain events until completion or the next checkpoint pause.

        Returns ``None`` when the run paused at a ``checkpoint_every``
        boundary (capture a snapshot, then call again); returns the
        collected :class:`RunResult` once the run completes.  A system
        restored from a snapshot (``repro resume``) resumes here
        directly: :meth:`start_run` must not be called again, its work
        is part of the captured state.
        """
        self._paused = False
        self._arm_access_limit()
        self._drain_events(max_events)
        if self._paused and not self._done:
            every = self.config.checkpoint_every
            if self._pause_at is not None and every is not None:
                # Keep the cadence anchored even if consecutive zero-gap
                # accesses carried the count past the threshold.
                while self._pause_at <= self.core.accesses_processed:
                    self._pause_at += every
            return None
        result = self._collect()
        if self.telemetry.enabled:
            # Close the final (possibly partial) epoch so the wear time
            # series covers the whole measurement window, then write the
            # bundle if a destination was configured.
            self.telemetry.tracer.record(
                self.events.now, EV_PHASE, detail="measure_end")
            self.telemetry.sample_epoch(self.events.now)
            if self.config.telemetry_dir is not None:
                self.telemetry.write(Path(self.config.telemetry_dir))
        self.release()
        return result

    def finish_run(self, max_events: int = 200_000_000) -> RunResult:
        """Drain to completion, snapshotting at every checkpoint pause.

        Snapshots are written to ``config.checkpoint_dir`` when set;
        with ``checkpoint_every`` set but no directory the run still
        pauses (so callers holding the system can capture it themselves)
        and immediately continues.
        """
        while True:
            result = self.continue_run(max_events)
            if result is not None:
                return result
            if self.config.checkpoint_dir is not None:
                # Local import: repro.checkpoint imports this module.
                from repro.checkpoint.snapshot import (default_snapshot_path,
                                                       save_snapshot)
                save_snapshot(
                    self, default_snapshot_path(self,
                                                self.config.checkpoint_dir))

    def rearm_after_restore(self) -> None:
        """Recompute pause bookkeeping after a snapshot restore.

        Called by :func:`repro.checkpoint.snapshot.restore_system`: the
        restoring config's ``checkpoint_every`` (which may differ from
        the capturing run's - both sit outside the cache key) decides
        where the *next* pause lands, counted from the restored access
        count.
        """
        every = self.config.checkpoint_every
        if every is not None:
            self._pause_at = self.core.accesses_processed + every
        else:
            self._pause_at = None
        self._paused = False
        self._arm_access_limit()

    def release(self) -> None:
        """Cut the callback edges so reference counting frees this system.

        The event heap, the core, the controller, queued requests and
        telemetry probes hold callbacks into one another and into the
        system; left in place, those cycles keep a dropped system (and
        its LLC) alive until a whole-heap collection.  Clearing them
        ends the run for good but keeps every statistic readable and the
        telemetry bundle writable.  :meth:`continue_run` calls this when
        it returns a result; a sweep's warm-up task calls it once the
        warm state is captured.  Calling it twice is harmless.
        """
        events = self.events
        events._heap.clear()
        core = self.core
        for name in ("on_access", "writeback_sink", "_gap_callback", "_hot"):
            setattr(core, name, None)
        core.access_limit = sys.maxsize
        ctrl = self.controller
        ctrl.on_fatal = None
        ctrl._write_space_waiters.clear()
        ctrl._read_space_waiters.clear()
        for queue in (ctrl.read_q, ctrl.write_q, ctrl.eager_q):
            for fifo in queue._fifos:
                for request in fifo:
                    request.callback = None
        for request in ctrl._bank_in_flight:
            if request is not None:
                request.callback = None
        if self.telemetry.enabled:
            # After the final epoch: nothing samples the probes again.
            self.telemetry.metrics.release()

    def _drain_events(self, max_events: int) -> None:
        """Run events until the run completes or pauses.

        Hands the whole budget to :meth:`EventQueue.run_fast`, which pops
        with every per-event load hoisted out of the loop;
        ``_on_access`` / ``_on_fault_fatal`` raise the queue's cooperative
        ``stop`` flag - which the core reads too - to end the drain right
        after the event that completed or paused the run.  The event that
        exhausts the budget raises even when it also completed the run.
        """
        events = self.events
        events.stop = False
        executed = events.run_fast(max_events + 1)
        if executed > max_events:
            raise DeadlockError("event budget exhausted; likely livelock")
        if not (self._done or self._paused):
            raise DeadlockError(
                f"event queue drained at {events.now} ns with "
                f"{self.core.accesses_processed} accesses processed"
            )

    # ------------------------------------------------------------------

    def _collect(self) -> RunResult:
        config = self.config
        measure_start = self._measure_start_ns
        measure_end = self._measure_end_ns
        assert measure_start is not None and measure_end is not None, (
            "statistics collected before the measurement window closed"
        )
        window = measure_end - measure_start
        if window <= 0:
            raise RuntimeError("empty measurement window")

        # Trim bank busy time that extends past the end of the window.
        bank_utilizations: List[float] = []
        for busy, busy_until in zip(self.controller.bank_busy_ns,
                                    self.controller._bank_busy_until):
            if busy_until > measure_end:
                busy -= busy_until - measure_end
            bank_utilizations.append(max(0.0, busy) / window)
        utilization = sum(bank_utilizations) / len(bank_utilizations)

        cstats = self.controller.stats
        lstats = self.llc.stats
        instructions = self.core.instructions_retired
        mpki = (lstats.misses * 1000.0 / instructions) if instructions else 0.0

        energy_model = LineEnergyModel.for_cell()
        read_energy = (
            cstats.read_row_hits * energy_model.read_energy_pj(True)
            + cstats.read_row_misses * energy_model.read_energy_pj(False)
        )
        write_energy = 0.0
        for record in self.wear.records:
            write_energy += record.normal_writes * energy_model.write_energy_pj(False)
            for factor, count in record.slow_writes_by_factor.items():
                write_energy += count * energy_model.write_energy_pj_for(factor)

        result = RunResult(
            workload=config.workload,
            policy=config.policy_name,
            slow_factor=config.slow_factor,
            num_banks=config.num_banks,
            expo_factor=config.expo_factor,
            window_ns=window,
            instructions=instructions,
            accesses=self.core.accesses_processed,
            ipc=self.core.ipc(window),
            lifetime_years=self.wear.system_lifetime_years(window),
            bank_utilization=utilization,
            drain_fraction=self.controller.drain_fraction(window),
            avg_read_latency_ns=cstats.avg_read_latency_ns,
            bank_utilizations=bank_utilizations,
            avg_read_queue_depth=self.controller.read_q.average_depth(window),
            avg_write_queue_depth=self.controller.write_q.average_depth(window),
            llc_misses=lstats.misses,
            llc_hits=lstats.hits,
            mpki=mpki,
            writebacks=lstats.writebacks,
            eager_writebacks=lstats.eager_writebacks,
            wasted_eager=lstats.wasted_eager,
            reads_issued=cstats.reads_issued,
            read_row_hits=cstats.read_row_hits,
            read_row_misses=cstats.read_row_misses,
            writes_issued_normal=cstats.writes_issued_normal,
            writes_issued_slow=cstats.writes_issued_slow,
            eager_issued=cstats.eager_issued,
            cancellations=cstats.cancellations,
            pauses=cstats.pauses,
            drain_events=cstats.drain_events,
            read_energy_pj=read_energy,
            write_energy_pj=write_energy,
            wear_records=[record.copy() for record in self.wear.records],
            blocks_per_bank=self.amap.blocks_per_bank,
            leveling_efficiency=self.wear.leveling_efficiency,
        )
        injector = self.faults
        if injector is not None:
            # Times are absolute simulated ns since the start of the timed
            # run (survival times, spanning warmup by design); -1.0 marks
            # an event that never happened, a JSON-exact sentinel.
            fstats = injector.stats
            result.faults_enabled = True
            result.uncorrectable = fstats.uncorrectable
            if fstats.first_failure_ns is not None:
                result.time_to_first_failure_ns = fstats.first_failure_ns
            if fstats.uncorrectable_ns is not None:
                result.time_to_uncorrectable_ns = fstats.uncorrectable_ns
            result.cells_failed = fstats.cells_failed
            result.lines_retired = fstats.lines_retired
            result.fault_write_retries = fstats.write_retries
            result.ecc_corrected_writes = fstats.corrected_writes
        if self.sanitize:
            # Re-derive the result from independent counters (read-only,
            # so sanitized results stay bit-identical to plain ones).
            from repro.analysis.validation import validate_result
            queued = len(self.controller.read_q)
            report = validate_result(result, reads_queued=queued)
            check(report.ok, "result-consistency",
                  "result validation failed: " + "; ".join(report.failures),
                  reads_queued=queued)
        return result


def run_simulation(config: SimConfig) -> RunResult:
    """Convenience wrapper: build a :class:`System` and run it."""
    return System(config).run()
