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
from repro.cache.lru import AccessResult, CacheLine, LRUCache
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
        tag_members = cache._tag_members
        sets = cache.sets
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
            members = tag_members[set_index]
            if tag not in members:
                misses += 1
                lines = sets[set_index]
                if len(lines) >= assoc:
                    # Recycle the victim object as the new line: nothing
                    # keeps a reference to it past the dirty check below,
                    # and every field is overwritten, so the set state is
                    # identical to allocating a fresh CacheLine.
                    victim = lines.pop()
                    members.remove(tags.pop())
                    if on_dirty_victim is not None and victim.dirty:
                        on_dirty_victim(victim.tag * num_sets + set_index)
                    victim.tag = tag
                    victim.dirty = is_write
                    victim.eager_cleaned = False
                    victim.last_touch = count
                    lines.insert(0, victim)
                else:
                    lines.insert(0, CacheLine(tag=tag, dirty=is_write,
                                              last_touch=count))
                tags.insert(0, tag)
                members.add(tag)
                continue
            position = tags.index(tag)
            lines = sets[set_index]
            if position:
                del tags[position]
                tags.insert(0, tag)
                line = lines.pop(position)
                lines.insert(0, line)
            else:
                line = lines[0]
            hit_counters[position] += 1
            reuse_age = count - line.last_touch
            line.last_touch = count
            bucket = reuse_age.bit_length()
            db_buckets[bucket if bucket < max_bucket else max_bucket] += 1
            reuses += 1
            if is_write:
                line.dirty = True
                line.eager_cleaned = False
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
        set_index = self.rng.randrange(self.cache.num_sets)
        if self.eager_selector == STACK_SELECTOR:
            line = self._pick_by_stack_position(set_index)
        else:
            line = self._pick_by_deadblock(set_index)
        if line is None:
            return None
        line.dirty = False
        line.eager_cleaned = True
        self.stats.eager_writebacks += 1
        block = self.cache.block_of(set_index, line.tag)
        tel = self._tel
        if tel.enabled:
            tel.metrics.counter("llc.eager_demotions").value += 1.0
            tel.tracer.record(tel.clock(), EV_EAGER_DEMOTE, block=block,
                              detail=self.eager_selector)
        return block

    def _pick_by_stack_position(self, set_index: int) -> Optional[CacheLine]:
        eager_position = self.profiler.eager_position
        if eager_position >= self.cache.assoc:
            return None   # nothing is currently classified useless
        candidates = [
            line
            for position, line in self.cache.dirty_lines_in_set(set_index)
            if position >= eager_position
        ]
        # Highest stack position = LRU-most = least likely to be reused.
        return candidates[-1] if candidates else None

    def _pick_by_deadblock(self, set_index: int) -> Optional[CacheLine]:
        dead = [
            line
            for _position, line in self.cache.dirty_lines_in_set(set_index)
            if self.deadblock.is_dead(self.cache.line_age(set_index, line))
        ]
        if not dead:
            return None
        # Oldest first: it has been dead the longest.
        return max(dead, key=lambda l: self.cache.line_age(set_index, l))

    def end_sample_period(self) -> int:
        """Close the profiling period (called every T_sample)."""
        self.deadblock.end_sample_period()
        return self.profiler.end_sample_period()

    def reset_statistics(self) -> None:
        self.stats.reset()
