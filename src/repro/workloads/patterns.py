"""Access-pattern building blocks for synthetic workloads.

Each pattern is a small stateful object with a ``next(rng)`` method
returning ``(block, is_write, dependent)``.  Workload profiles
(:mod:`repro.workloads.profiles`) compose several patterns with weights.

Blocks are *global cacheline indices*; patterns operate inside a region
``[base, base + size_blocks)`` so different components of one workload touch
disjoint data structures.

Every pattern also offers ``compile_fast(rng)``, which returns a zero-arg
closure equivalent to ``next(rng)`` with the per-call overhead stripped:
parameters prebound as locals, ``rng.random``/``rng.getrandbits`` looked up
once, and ``randrange`` replaced by an inline of CPython's
``Random._randbelow_with_getrandbits`` rejection loop::

    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)

That loop is the exact algorithm ``randrange(n)`` has used on every CPython
this project supports (3.10-3.12), so the compiled closures draw the same
values from the same generator state.  ``next`` stays the readable
specification of each pattern; ``tests/test_patterns.py`` holds every
compiled closure to it draw for draw.  The base-class default simply wraps
``next``, so custom patterns stay correct without a compiled form.
"""

from __future__ import annotations

import random
from typing import Callable, Tuple

Access = Tuple[int, bool, bool]
FastNext = Callable[[], Access]


class Pattern:
    """Base class so profiles can hold heterogeneous pattern lists."""

    def next(self, rng: random.Random) -> Access:
        raise NotImplementedError

    def compile_fast(self, rng: random.Random) -> FastNext:
        """A zero-arg closure equivalent to ``next(rng)`` (see module doc).

        Subclasses override this with slimmed closures; this default keeps
        any pattern without one correct (if no faster).
        """
        return lambda: self.next(rng)


class SequentialStream(Pattern):
    """Sweeps a region linearly, wrapping around (STREAM-style arrays).

    ``write_ratio`` of the accesses are stores (e.g. the c[] array of
    triad).  Streams have no short-term reuse, so almost every access misses
    the LLC, and written lines are never touched again before eviction -
    prime Eager Mellow Writes material.
    """

    def __init__(self, base: int, size_blocks: int, write_ratio: float = 0.0,
                 stride: int = 1) -> None:
        if size_blocks < 1:
            raise ValueError("size_blocks must be >= 1")
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.base = base
        self.size_blocks = size_blocks
        self.write_ratio = write_ratio
        self.stride = stride
        self._cursor = 0

    def next(self, rng: random.Random) -> Access:
        block = self.base + self._cursor
        self._cursor = (self._cursor + self.stride) % self.size_blocks
        is_write = rng.random() < self.write_ratio
        return block, is_write, False

    def compile_fast(self, rng: random.Random) -> FastNext:
        base = self.base
        size = self.size_blocks
        stride = self.stride
        write_ratio = self.write_ratio
        rnd = rng.random

        def fast_next() -> Access:   # simlint: hotpath
            cursor = self._cursor
            self._cursor = (cursor + stride) % size
            return base + cursor, rnd() < write_ratio, False
        return fast_next


class RandomAccess(Pattern):
    """Uniform random accesses over a region (GUPS-like when writing)."""

    def __init__(self, base: int, size_blocks: int, write_ratio: float = 0.0,
                 dependent: bool = False) -> None:
        if size_blocks < 1:
            raise ValueError("size_blocks must be >= 1")
        self.base = base
        self.size_blocks = size_blocks
        self.write_ratio = write_ratio
        self.dependent = dependent

    def next(self, rng: random.Random) -> Access:
        block = self.base + rng.randrange(self.size_blocks)
        is_write = rng.random() < self.write_ratio
        dependent = self.dependent and not is_write
        return block, is_write, dependent

    def compile_fast(self, rng: random.Random) -> FastNext:
        base = self.base
        n = self.size_blocks
        k = n.bit_length()
        write_ratio = self.write_ratio
        dependent = self.dependent
        rnd = rng.random
        getrandbits = rng.getrandbits

        def fast_next() -> Access:   # simlint: hotpath
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            is_write = rnd() < write_ratio
            return base + r, is_write, dependent and not is_write
        return fast_next


class HotSet(Pattern):
    """Skewed reuse: most accesses go to a small hot subset of the region.

    Provides the LLC hits that populate low LRU stack positions, so the
    Eager profiler sees a realistic hit-position histogram.
    """

    def __init__(self, base: int, size_blocks: int, hot_blocks: int,
                 hot_fraction: float = 0.9, write_ratio: float = 0.0) -> None:
        if not 0 < hot_blocks <= size_blocks:
            raise ValueError("need 0 < hot_blocks <= size_blocks")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        self.base = base
        self.size_blocks = size_blocks
        self.hot_blocks = hot_blocks
        self.hot_fraction = hot_fraction
        self.write_ratio = write_ratio

    def next(self, rng: random.Random) -> Access:
        if rng.random() < self.hot_fraction:
            block = self.base + rng.randrange(self.hot_blocks)
        else:
            block = self.base + rng.randrange(self.size_blocks)
        is_write = rng.random() < self.write_ratio
        return block, is_write, False

    def compile_fast(self, rng: random.Random) -> FastNext:
        base = self.base
        size = self.size_blocks
        size_k = size.bit_length()
        hot = self.hot_blocks
        hot_k = hot.bit_length()
        hot_fraction = self.hot_fraction
        write_ratio = self.write_ratio
        rnd = rng.random
        getrandbits = rng.getrandbits

        def fast_next() -> Access:   # simlint: hotpath
            if rnd() < hot_fraction:
                r = getrandbits(hot_k)
                while r >= hot:
                    r = getrandbits(hot_k)
            else:
                r = getrandbits(size_k)
                while r >= size:
                    r = getrandbits(size_k)
            return base + r, rnd() < write_ratio, False
        return fast_next


class PointerChase(Pattern):
    """Dependent random reads (mcf-style): every load gates progress."""

    def __init__(self, base: int, size_blocks: int,
                 write_ratio: float = 0.0) -> None:
        if size_blocks < 1:
            raise ValueError("size_blocks must be >= 1")
        self.base = base
        self.size_blocks = size_blocks
        self.write_ratio = write_ratio

    def next(self, rng: random.Random) -> Access:
        block = self.base + rng.randrange(self.size_blocks)
        is_write = rng.random() < self.write_ratio
        return block, is_write, not is_write

    def compile_fast(self, rng: random.Random) -> FastNext:
        base = self.base
        n = self.size_blocks
        k = n.bit_length()
        write_ratio = self.write_ratio
        rnd = rng.random
        getrandbits = rng.getrandbits

        def fast_next() -> Access:   # simlint: hotpath
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            is_write = rnd() < write_ratio
            return base + r, is_write, not is_write
        return fast_next


class ReadModifyWrite(Pattern):
    """Random read-then-write pairs to the same block (GUPS updates)."""

    def __init__(self, base: int, size_blocks: int,
                 dependent_reads: bool = True) -> None:
        if size_blocks < 1:
            raise ValueError("size_blocks must be >= 1")
        self.base = base
        self.size_blocks = size_blocks
        self.dependent_reads = dependent_reads
        self._pending_write: int = -1

    def next(self, rng: random.Random) -> Access:
        if self._pending_write >= 0:
            block = self._pending_write
            self._pending_write = -1
            return block, True, False
        block = self.base + rng.randrange(self.size_blocks)
        self._pending_write = block
        return block, False, self.dependent_reads

    def compile_fast(self, rng: random.Random) -> FastNext:
        base = self.base
        n = self.size_blocks
        k = n.bit_length()
        dependent_reads = self.dependent_reads
        getrandbits = rng.getrandbits

        def fast_next() -> Access:   # simlint: hotpath
            pending = self._pending_write
            if pending >= 0:
                self._pending_write = -1
                return pending, True, False
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            block = base + r
            self._pending_write = block
            return block, False, dependent_reads
        return fast_next


class PhasedPattern(Pattern):
    """Alternates between two sub-patterns in long phases.

    Many applications run in phases (compute-heavy then write-back-heavy);
    Wear Quota's period accounting reacts very differently to phased and
    steady traffic, so this wrapper exists to stress it.  The pattern
    serves ``phase_length`` accesses from one sub-pattern, then switches.
    """

    def __init__(self, first: Pattern, second: Pattern,
                 phase_length: int = 10_000) -> None:
        if phase_length < 1:
            raise ValueError("phase_length must be >= 1")
        self.first = first
        self.second = second
        self.phase_length = phase_length
        self._served = 0
        self._in_second = False

    def next(self, rng: random.Random) -> Access:
        active = self.second if self._in_second else self.first
        self._served += 1
        if self._served >= self.phase_length:
            self._served = 0
            self._in_second = not self._in_second
        return active.next(rng)

    def compile_fast(self, rng: random.Random) -> FastNext:
        first = self.first.compile_fast(rng)
        second = self.second.compile_fast(rng)
        phase_length = self.phase_length

        def fast_next() -> Access:
            active = second if self._in_second else first
            self._served += 1
            if self._served >= phase_length:
                self._served = 0
                self._in_second = not self._in_second
            return active()
        return fast_next
