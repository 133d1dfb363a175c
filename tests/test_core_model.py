"""Focused tests for the SimpleCore timing model."""

import pytest

from repro.cache.llc import LastLevelCache
from repro.core.policies import parse_policy
from repro.cpu.core import SimpleCore
from repro.cpu.trace import TraceRecord
from repro.endurance.wear import WearTracker
from repro.memory.address import AddressMap
from repro.memory.controller import MemoryController
from repro.sim.events import EventQueue

AMAP = AddressMap(num_banks=4, num_ranks=1, capacity_bytes=64 * 1024 * 1024)


def build(trace, base_cpi=0.5, mlp=4, policy="Norm"):
    events = EventQueue()
    llc = LastLevelCache(size_bytes=64 * 1024, assoc=4)
    controller = MemoryController(
        events=events, policy=parse_policy(policy), address_map=AMAP,
        wear=WearTracker(AMAP.num_banks, AMAP.blocks_per_bank),
    )
    core = SimpleCore(events, llc, controller, iter(trace),
                      base_cpi=base_cpi, mlp=mlp)
    return events, core, controller


def test_pure_compute_runs_at_base_cpi():
    """No memory: elapsed time == instructions * base_cpi * clk."""
    trace = [TraceRecord(1000, 0, False)]    # one access after 1000 insts
    events, core, _ = build(trace, base_cpi=0.5)
    core.start()
    events.run_all()
    assert core.instructions_retired == 1000
    # The gap alone takes 1000 * 0.5 * 0.5ns = 250 ns.
    assert events.now >= 250.0


def test_independent_misses_overlap_up_to_mlp():
    """Four independent read misses to different banks pipeline."""
    trace = [TraceRecord(0, bank, False) for bank in range(4)]
    events, core, controller = build(trace, mlp=4)
    core.start()
    events.run_all()
    # All four overlap: total time ~ one activation + serialized bursts,
    # far below 4 sequential misses (4 x 142.5 = 570 ns).
    assert events.now < 300.0
    assert controller.stats.reads_completed == 4


def test_dependent_misses_serialize():
    trace = [TraceRecord(0, bank, False, dependent=True)
             for bank in range(4)]
    events, core, _ = build(trace, mlp=4)
    core.start()
    events.run_all()
    assert events.now >= 4 * 142.5 - 1e-6


def test_mlp_limit_throttles_independent_misses():
    """With MLP=1, even independent misses serialize."""
    trace = [TraceRecord(0, bank, False) for bank in range(4)]
    events, core, _ = build(trace, mlp=1)
    core.start()
    events.run_all()
    assert events.now >= 3 * 142.5 - 1e-6   # last miss may not block


def test_stores_do_not_block_on_fill():
    """Store misses issue fills but retirement continues (MLP permitting)."""
    trace = [TraceRecord(0, bank, True) for bank in range(3)]
    trace.append(TraceRecord(100, 64, False))
    events, core, _ = build(trace, mlp=8)
    core.start()
    events.run_all()
    assert core.instructions_retired == 100
    assert core.accesses_processed == 4


def test_llc_hits_cost_nothing():
    trace = [TraceRecord(0, 5, False)] + [TraceRecord(1, 5, False)] * 50
    events, core, _ = build(trace)
    core.start()
    events.run_all()
    # One miss (~142.5 ns) plus 50 one-instruction gaps (0.25 ns each).
    assert events.now < 200.0


def test_stall_time_accounts_dependent_waits():
    trace = [TraceRecord(0, bank, False, dependent=True)
             for bank in range(3)]
    events, core, _ = build(trace)
    core.start()
    events.run_all()
    assert core.stall_time_ns > 2 * 142.5 * 0.9


def test_finished_after_trace_exhausts():
    events, core, _ = build([TraceRecord(1, 0, False)])
    core.start()
    events.run_all()
    assert core.finished


def test_invalid_construction():
    with pytest.raises(ValueError):
        build([], base_cpi=0.0)
    with pytest.raises(ValueError):
        build([], mlp=0)


# ---------------------------------------------------------------------------
# The record loop against its specification
# ---------------------------------------------------------------------------

def _llc_state(llc):
    cache = llc.cache
    stats = llc.stats
    return {
        "tags": cache._tag_sets,
        "flags": cache._flags,
        "touches": cache._touches,
        "set_access_counts": cache.set_access_counts,
        "hit_counters": llc.profiler.hit_counters,
        "miss_counter": llc.profiler.miss_counter,
        "buckets": llc.deadblock.buckets,
        "total_reuses": llc.deadblock.total_reuses,
        "stats": (stats.accesses, stats.hits, stats.misses,
                  stats.writebacks, stats.eager_writebacks,
                  stats.wasted_eager),
    }


def _trace_state(trace):
    from repro.checkpoint.codec import _pattern_state

    return trace.rng.getstate(), [_pattern_state(p) for p in trace.patterns]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
@pytest.mark.parametrize("seed", [1, 7, 23])
@pytest.mark.parametrize("workload", ["hmmer", "zeusmp", "gups", "lbm"])
def test_record_loop_matches_lru_access_and_next_record(workload, seed,
                                                        sanitize):
    """The core's record loop draws each record in-line and applies LLC
    hits in place.  Fed a profile trace, it must leave the cache and the
    trace exactly where pulling ``ProfileTrace.next_record`` and calling
    ``LastLevelCache.access`` (``LRUCache.access`` plus the profiler,
    dead-block and LLCStats counters) once per record would: the three
    LRU columns, per-set access counts, profiler hit and miss counters,
    dead-block histogram, LLCStats, trace RNG state and pattern cursors.
    Some dirty lines start eager-cleaned, so hits that waste an eager
    writeback are covered too."""
    import random

    from repro.workloads.profiles import get_profile

    profile = get_profile(workload)

    def fresh():
        llc = LastLevelCache(size_bytes=1024 * 1024, assoc=16)
        trace = profile.trace(seed)
        llc.warm_chunk(trace, 12000)
        picker = random.Random(seed)
        for flags in llc.cache._flags:
            for position, flag in enumerate(flags):
                if flag & 1 and picker.random() < 0.3:
                    flags[position] = 2    # EAGER_CLEANED
        return llc, trace

    llc, trace = fresh()
    events = EventQueue(sanitize=sanitize)
    controller = MemoryController(
        events=events, policy=parse_policy("Norm"), address_map=AMAP,
        wear=WearTracker(AMAP.num_banks, AMAP.blocks_per_bank),
        sanitize=sanitize,
    )
    stop_at = 3000

    def stop(count):
        core.stop_requested = True
        events.stop = True

    core = SimpleCore(events, llc, controller, trace, base_cpi=0.5, mlp=4,
                      on_access=stop, sanitize=sanitize)
    core.access_limit = stop_at
    core.start()
    events.run_fast(10**7)
    consumed = core.accesses_processed
    assert consumed >= stop_at
    assert controller.read_q.capacity > core.mlp   # no fill is replayed

    ref_llc, ref_trace = fresh()
    for _ in range(consumed):
        record = ref_trace.next_record()
        ref_llc.access(record.block, record.is_write)
    if core._gap_record is not None:
        # The record whose gap event is pending was drawn, not accessed.
        assert ref_trace.next_record() == core._gap_record
    assert 0 < llc.stats.hits < consumed
    assert _llc_state(llc) == _llc_state(ref_llc)
    assert _trace_state(trace) == _trace_state(ref_trace)
