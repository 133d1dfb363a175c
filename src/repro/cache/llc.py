"""The last-level cache with Eager Mellow Writes hooks (Section IV-B).

The LLC is a 2 MB / 16-way LRU cache.  On top of plain demand behaviour it

* feeds every access into the :class:`StackProfiler`;
* on request (``pick_eager_candidate``) samples a random set and returns the
  least-recently-used *dirty* line whose stack position falls in the
  currently-useless region, to be sent to the Eager Mellow Queue;
* tracks wasted eager writebacks (a line that is dirtied again after an
  eager writeback wasted that write).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Tuple

from repro import params
from repro.cache.deadblock import DeadBlockPredictor
from repro.cache.lru import DIRTY, EAGER_CLEANED, AccessResult, LRUCache
from repro.cache.profiler import StackProfiler
from repro.telemetry import EV_EAGER_DEMOTE, NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.cpu.trace import TraceRecord

STACK_SELECTOR = "stack"
DEADBLOCK_SELECTOR = "deadblock"


@dataclass
class LLCStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0          # dirty demand evictions sent to memory
    eager_writebacks: int = 0    # lines handed to the eager queue
    wasted_eager: int = 0        # eager-cleaned lines dirtied again

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.__init__()


class LastLevelCache:
    """2 MB, 16-way LLC with eager-mellow candidate selection."""

    def __init__(
        self,
        size_bytes: int = params.LLC_SIZE_BYTES,
        assoc: int = params.LLC_ASSOC,
        line_bytes: int = params.CACHELINE_BYTES,
        threshold_ratio: float = params.USELESS_THRESHOLD_RATIO,
        sample_period_ns: float = params.PROFILE_PERIOD_NS,
        rng: Optional[random.Random] = None,
        eager_selector: str = STACK_SELECTOR,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        if eager_selector not in (STACK_SELECTOR, DEADBLOCK_SELECTOR):
            raise ValueError(f"unknown eager selector {eager_selector!r}")
        self.cache = LRUCache.from_geometry(size_bytes, assoc, line_bytes)
        self.profiler = StackProfiler(
            assoc, threshold_ratio, sample_period_ns,
        )
        self.eager_selector = eager_selector
        self.deadblock = DeadBlockPredictor(
            tail_ratio=threshold_ratio, horizon=float(assoc),
        )
        # Stable references for the hot paths: both lists are zeroed in
        # place by end_sample_period(), never replaced.
        self._hit_counters = self.profiler.hit_counters
        self._db_buckets = self.deadblock.buckets
        self.rng = rng if rng is not None else random.Random(0)
        self.stats = LLCStats()
        self._tel = telemetry
        if telemetry.enabled:
            self._eager_demotions = telemetry.metrics.counter(
                "llc.eager_demotions", from_first_bump=True)
            # Export the Section IV-B1 stack-position hit counters as
            # per-epoch probes.  System samples telemetry *before*
            # end_sample_period() resets the profiler, so each sampled
            # value is the epoch's own hit count, not a cumulative total.
            def _hit_probe(position: int) -> Callable[[], float]:
                return lambda: float(self.profiler.hit_counters[position])
            for position in range(assoc):
                telemetry.metrics.probe(
                    f"llc.stack_hits.p{position:02d}", _hit_probe(position))
            telemetry.metrics.probe(
                "llc.stack_misses", lambda: float(self.profiler.miss_counter))
            telemetry.metrics.probe(
                "llc.eager_position",
                lambda: float(self.profiler.eager_position))

    def access(self, block: int,
               is_write: bool) -> AccessResult:   # simlint: hotpath
        """Demand access; updates the profiler and writeback stats.

        The profiler's hit/miss counters and the dead-block reuse
        histogram are bumped inline (their methods are single list or
        attribute increments).
        """
        result = self.cache.access(block, is_write)
        stats = self.stats
        stats.accesses += 1
        if result.hit:
            stats.hits += 1
            self._hit_counters[result.stack_position] += 1
            age = result.reuse_age
            if age is not None:
                # DeadBlockPredictor.record_reuse, inlined: ages from the
                # LRU cache are never negative, so max(0, age) is age.
                bucket = age.bit_length()
                self._db_buckets[
                    bucket if bucket < DeadBlockPredictor.MAX_BUCKET
                    else DeadBlockPredictor.MAX_BUCKET
                ] += 1
                self.deadblock.total_reuses += 1
            if result.rewrote_eager_clean:
                stats.wasted_eager += 1
        else:
            stats.misses += 1
            self.profiler.miss_counter += 1
            victim = result.victim
            if victim is not None and victim.dirty:
                stats.writebacks += 1
        return result

    def warm_chunk(
        self,
        trace: Iterator["TraceRecord"],
        count_limit: int,
        on_dirty_victim: Optional[Callable[[int], object]] = None,
    ) -> Tuple[int, bool]:   # simlint: hotpath
        """Consume up to ``count_limit`` records for functional warmup.

        Returns ``(consumed, exhausted)``.  Cache-state effects (LRU
        movement, line dirtying, profiler hit/miss counters, dead-block
        histogram) are identical to calling :meth:`access` per record -
        only bookkeeping that warmup provably discards is skipped:

        * :class:`LLCStats` updates - ``System`` calls
          ``reset_statistics()`` the moment warmup finishes, so every
          increment would be zeroed anyway;
        * ``rewrote_eager_clean`` detection - no eager machinery runs
          before the event loop starts, so no line is eager-cleaned yet;
        * per-record ``miss_counter`` / ``total_reuses`` stores - summed
          locally and added once at chunk end (nothing samples the
          profiler mid-warmup).

        When the trace exposes ``raw_parts`` (a workload profile's trace
        does), the draw sequence is inlined right here - same RNG draws,
        no gap arithmetic, no generator resume, no record objects.  Any
        other iterator (a workload mix) is consumed record by record.

        ``on_dirty_victim`` receives the block number of each dirty
        evicted line (the DRAM write buffer warming hook).
        """
        cache = self.cache
        num_sets = cache.num_sets
        tag_sets = cache._tag_sets
        flag_sets = cache._flags
        touch_sets = cache._touches
        counts = cache.set_access_counts
        assoc = cache.assoc
        hit_counters = self.profiler.hit_counters
        db_buckets = self.deadblock.buckets
        max_bucket = DeadBlockPredictor.MAX_BUCKET
        raw_parts = getattr(trace, "raw_parts", None)
        if raw_parts is not None:
            rnd, compiled, fallback = raw_parts
        else:
            rnd = compiled = fallback = None
        misses = 0
        reuses = 0
        consumed = 0
        exhausted = False
        while consumed < count_limit:
            if rnd is not None:
                r = rnd()
                for _cum, fast_next in compiled:
                    if r <= _cum:
                        chosen = fast_next
                        break
                else:
                    chosen = fallback
                block, is_write, _dep = chosen()
                rnd()   # the gap draw; value unused during warmup
            else:
                record = next(trace, None)
                if record is None:
                    exhausted = True
                    break
                block = record.block
                is_write = record.is_write
            consumed += 1
            set_index = block % num_sets
            tags = tag_sets[set_index]
            tag = block // num_sets
            counts[set_index] = count = counts[set_index] + 1
            touches = touch_sets[set_index]
            if tag not in tags:
                misses += 1
                flags = flag_sets[set_index]
                if len(tags) >= assoc:
                    victim_tag = tags.pop()
                    touches.pop()
                    if flags.pop() & DIRTY and on_dirty_victim is not None:
                        on_dirty_victim(victim_tag * num_sets + set_index)
                tags.insert(0, tag)
                flags.insert(0, DIRTY if is_write else 0)
                touches.insert(0, count)
                continue
            position = tags.index(tag)
            if position:
                del tags[position]
                tags.insert(0, tag)
                flags = flag_sets[set_index]
                flag = flags.pop(position)
                flags.insert(0, DIRTY if is_write else flag)
                reuse_age = count - touches.pop(position)
                touches.insert(0, count)
            else:
                if is_write:
                    flag_sets[set_index][0] = DIRTY
                reuse_age = count - touches[0]
                touches[0] = count
            hit_counters[position] += 1
            bucket = reuse_age.bit_length()
            db_buckets[bucket if bucket < max_bucket else max_bucket] += 1
            reuses += 1
        self.profiler.miss_counter += misses
        self.deadblock.total_reuses += reuses
        return consumed, exhausted

    def pick_eager_candidate(self) -> Optional[int]:
        """Sample one random set; return a useless dirty block, or None.

        The chosen line is marked clean (but stays resident).  With the
        default stack selector, useless means "at or beyond the profiled
        eager LRU position", and among candidates the least-recently-used
        line is preferred (Section IV-B1).  With the dead-block selector
        (future-work extension), useless means "untouched for longer than
        almost any observed reuse".
        """
        cache = self.cache
        set_index = self.rng.randrange(cache.num_sets)
        if self.eager_selector == STACK_SELECTOR:
            position = self._pick_by_stack_position(set_index)
        else:
            position = self._pick_by_deadblock(set_index)
        if position is None:
            return None
        cache._flags[set_index][position] = EAGER_CLEANED
        self.stats.eager_writebacks += 1
        block = cache.block_of(set_index, cache._tag_sets[set_index][position])
        tel = self._tel
        if tel.enabled:
            self._eager_demotions.value += 1.0
            tel.tracer.record(tel.clock(), EV_EAGER_DEMOTE, -1, block, -1,
                              0.0, self.eager_selector)
        return block

    def _pick_by_stack_position(self, set_index: int) -> Optional[int]:
        """Stack position of the LRU-most dirty line at or beyond the
        profiled eager position (the least likely to be reused)."""
        eager_position = self.profiler.eager_position
        flags = self.cache._flags[set_index]
        for position in range(len(flags) - 1, eager_position - 1, -1):
            if flags[position] & DIRTY:
                return position
        return None

    def _pick_by_deadblock(self, set_index: int) -> Optional[int]:
        """Stack position of the oldest dirty line predicted dead (the
        one dead the longest; the MRU-most on a tie)."""
        cache = self.cache
        count = cache.set_access_counts[set_index]
        touches = cache._touches[set_index]
        is_dead = self.deadblock.is_dead
        best: Optional[int] = None
        best_age = -1
        for position, flag in enumerate(cache._flags[set_index]):
            if flag & DIRTY:
                age = count - touches[position]
                if age > best_age and is_dead(age):
                    best, best_age = position, age
        return best

    def end_sample_period(self) -> int:
        """Close the profiling period (called every T_sample)."""
        self.deadblock.end_sample_period()
        return self.profiler.end_sample_period()

    def reset_statistics(self) -> None:
        self.stats.reset()
