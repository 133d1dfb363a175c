"""Set-associative LRU cache with dirty bits and stack-position reporting.

The Eager Mellow Writes profiler needs, for every hit, the LRU stack
position of the line that was hit (0 = MRU, assoc-1 = LRU), exploiting the
stack property of LRU (Mattson et al., 1970).  ``access`` therefore returns
the pre-access stack position alongside the hit/miss outcome.

Each set keeps its ``CacheLine`` objects MRU-first, plus two mirrors that
make the per-access tag search cheap: the same tags in the same order as a
plain ``List[int]`` (so a hit's stack position is one C-level
``list.index`` call instead of a loop of attribute loads) and an unordered
membership ``set`` (so a miss is one O(1) hash probe, the common case in
miss-heavy workloads).  Every path that changes set membership or order -
:meth:`LRUCache.access`, the LLC's functional warm-up and checkpoint
restore - updates all three together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Set, Tuple


@dataclass(slots=True)
class CacheLine:
    tag: int
    dirty: bool = False
    eager_cleaned: bool = False   # cleaned by an eager mellow writeback
    last_touch: int = 0           # set-access count at the last touch


class AccessResult(NamedTuple):
    """Outcome of one cache access.

    Attributes:
        hit: whether the block was present.
        stack_position: pre-access LRU stack position of the hit line
            (None on a miss).
        victim: evicted line, if the fill displaced one (None otherwise).
        rewrote_eager_clean: the access dirtied a line that an eager
            writeback had cleaned - i.e. that eager write was wasted.
        reuse_age: set accesses since the hit line's last touch (hits).

    A named tuple because :meth:`LRUCache.access` builds one per access
    and ``tuple.__new__`` is several times cheaper than a dataclass
    ``__init__``.
    """

    hit: bool
    stack_position: Optional[int]
    victim: Optional[CacheLine]
    rewrote_eager_clean: bool = False
    reuse_age: Optional[int] = None


_new_result = tuple.__new__


class LRUCache:
    """An N-way set-associative write-back, write-allocate LRU cache.

    Lines are indexed by global block number: ``set = block % num_sets``,
    ``tag = block // num_sets``.  Each set is a list ordered MRU-first.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must be >= 1")
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets: List[List[CacheLine]] = [[] for _ in range(num_sets)]
        self.set_access_counts: List[int] = [0] * num_sets
        # MRU-first tag mirror of self.sets plus an unordered membership
        # set per set (see the module docstring).
        self._tag_sets: List[List[int]] = [[] for _ in range(num_sets)]
        self._tag_members: List[Set[int]] = [set() for _ in range(num_sets)]

    @classmethod
    def from_geometry(cls, size_bytes: int, assoc: int,
                      line_bytes: int) -> "LRUCache":
        num_lines = size_bytes // line_bytes
        if num_lines % assoc:
            raise ValueError("cache size must be a whole number of sets")
        return cls(num_lines // assoc, assoc)

    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def tag_of(self, block: int) -> int:
        return block // self.num_sets

    def block_of(self, set_index: int, tag: int) -> int:
        """Inverse of (set_index, tag_of)."""
        return tag * self.num_sets + set_index

    def access(self, block: int,
               is_write: bool) -> AccessResult:   # simlint: hotpath
        """Perform a demand access; fills on miss (write-allocate).

        A miss is detected by one hash probe of the set's membership set;
        a hit's stack position is ``list.index`` on the tag mirror.
        """
        num_sets = self.num_sets
        set_index = block % num_sets
        lines = self.sets[set_index]
        tag = block // num_sets
        counts = self.set_access_counts
        counts[set_index] = count = counts[set_index] + 1
        members = self._tag_members[set_index]
        tags = self._tag_sets[set_index]
        if tag not in members:
            victim = None
            if len(lines) >= self.assoc:
                victim = lines.pop()
                members.remove(tags.pop())
            lines.insert(0, CacheLine(tag=tag, dirty=is_write,
                                      last_touch=count))
            tags.insert(0, tag)
            members.add(tag)
            return _new_result(
                AccessResult, (False, None, victim, False, None))
        position = tags.index(tag)
        if position:
            del tags[position]
            tags.insert(0, tag)
            line = lines.pop(position)
            lines.insert(0, line)
        else:
            line = lines[0]
        reuse_age = count - line.last_touch
        line.last_touch = count
        rewrote = False
        if is_write:
            rewrote = line.eager_cleaned and not line.dirty
            line.dirty = True
            line.eager_cleaned = False
        return _new_result(
            AccessResult, (True, position, None, rewrote, reuse_age))

    def lookup(self, block: int) -> Optional[CacheLine]:
        """Find a line without touching recency."""
        lines = self.sets[self.set_index(block)]
        tag = self.tag_of(block)
        for line in lines:
            if line.tag == tag:
                return line
        return None

    def mark_clean(self, block: int, eager: bool = False) -> bool:
        """Clear a line's dirty bit (eager writeback); True if it was dirty."""
        line = self.lookup(block)
        if line is None or not line.dirty:
            return False
        line.dirty = False
        if eager:
            line.eager_cleaned = True
        return True

    def dirty_lines_in_set(
            self, set_index: int) -> List[Tuple[int, CacheLine]]:
        """(stack_position, line) pairs of dirty lines, MRU-first order."""
        return [
            (position, line)
            for position, line in enumerate(self.sets[set_index])
            if line.dirty
        ]

    def line_age(self, set_index: int, line: CacheLine) -> int:
        """Set accesses since ``line`` was last touched."""
        return self.set_access_counts[set_index] - line.last_touch

    def occupancy(self) -> int:
        return sum(len(lines) for lines in self.sets)

    def dirty_count(self) -> int:
        return sum(
            1 for lines in self.sets for line in lines if line.dirty
        )
