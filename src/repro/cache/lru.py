"""Set-associative LRU cache with dirty bits and stack-position reporting.

The Eager Mellow Writes profiler needs, for every hit, the LRU stack
position of the line that was hit (0 = MRU, assoc-1 = LRU), exploiting the
stack property of LRU (Mattson et al., 1970).  ``access`` therefore returns
the pre-access stack position alongside the hit/miss outcome.

There are no per-line objects.  Each set is three parallel columns,
MRU-first: the tags, the flags (``dirty | eager_cleaned << 1``) and the
set-access count at each line's last touch.  A set holds at most
``assoc`` (16) tags, so membership is a C-level scan of the tag column
(``tag in tags``) and a hit's stack position one ``list.index`` call.
A hash set per set made a miss one probe, but saved no measurable time
and held 3.5 MB of a default run's heap.
Every path that changes set membership or order - :meth:`LRUCache.access`,
the LLC's functional warm-up and checkpoint restore - updates the three
columns together.  Copying the cache is therefore a flatten or a slice of
int lists, which is what makes a warm state cheap to capture and to
restore.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

#: Flag bits of a line (the ``_flags`` columns).
DIRTY = 1
EAGER_CLEANED = 2   # cleaned by an eager mellow writeback


class CacheLine(NamedTuple):
    """A read-only record of one line, built on demand.

    The cache stores no such objects: :meth:`LRUCache.lookup` and an
    eviction's :attr:`AccessResult.victim` build one from the columns.
    """

    tag: int
    dirty: bool = False
    eager_cleaned: bool = False
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


_new_tuple = tuple.__new__


class LRUCache:
    """An N-way set-associative write-back, write-allocate LRU cache.

    Lines are indexed by global block number: ``set = block % num_sets``,
    ``tag = block // num_sets``.  Each set's columns are MRU-first.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must be >= 1")
        self.num_sets = num_sets
        self.assoc = assoc
        self.set_access_counts: List[int] = [0] * num_sets
        self._tag_sets: List[List[int]] = [[] for _ in range(num_sets)]
        self._flags: List[List[int]] = [[] for _ in range(num_sets)]
        self._touches: List[List[int]] = [[] for _ in range(num_sets)]

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

        A miss is a scan of the set's tag column; a hit's stack position
        is ``list.index`` on it.
        """
        num_sets = self.num_sets
        set_index = block % num_sets
        tag = block // num_sets
        counts = self.set_access_counts
        counts[set_index] = count = counts[set_index] + 1
        tags = self._tag_sets[set_index]
        flags = self._flags[set_index]
        touches = self._touches[set_index]
        if tag not in tags:
            victim = None
            if len(tags) >= self.assoc:
                victim_tag = tags.pop()
                flag = flags.pop()
                victim = _new_tuple(CacheLine, (
                    victim_tag, flag & DIRTY == DIRTY, flag > DIRTY,
                    touches.pop()))
            tags.insert(0, tag)
            flags.insert(0, DIRTY if is_write else 0)
            touches.insert(0, count)
            return _new_tuple(
                AccessResult, (False, None, victim, False, None))
        position = tags.index(tag)
        if position:
            del tags[position]
            tags.insert(0, tag)
            flag = flags.pop(position)
            flags.insert(0, flag)
            reuse_age = count - touches.pop(position)
            touches.insert(0, count)
        else:
            flag = flags[0]
            reuse_age = count - touches[0]
            touches[0] = count
        rewrote = False
        if is_write:
            rewrote = flag == EAGER_CLEANED
            flags[0] = DIRTY
        return _new_tuple(
            AccessResult, (True, position, None, rewrote, reuse_age))

    def _position(self, block: int) -> Optional[int]:
        """Stack position of ``block`` in its set, or None if absent."""
        tag = block // self.num_sets
        set_index = block % self.num_sets
        tags = self._tag_sets[set_index]
        if tag not in tags:
            return None
        return tags.index(tag)

    def lookup(self, block: int) -> Optional[CacheLine]:
        """A record of ``block``'s line, without touching recency."""
        position = self._position(block)
        if position is None:
            return None
        set_index = block % self.num_sets
        flag = self._flags[set_index][position]
        return CacheLine(self._tag_sets[set_index][position],
                         flag & DIRTY == DIRTY, flag > DIRTY,
                         self._touches[set_index][position])

    def mark_clean(self, block: int, eager: bool = False) -> bool:
        """Clear a line's dirty bit (eager writeback); True if it was dirty."""
        position = self._position(block)
        if position is None:
            return False
        flags = self._flags[block % self.num_sets]
        flag = flags[position]
        if not flag & DIRTY:
            return False
        flags[position] = (flag & ~DIRTY) | (EAGER_CLEANED if eager else 0)
        return True

    def occupancy(self) -> int:
        return sum(map(len, self._tag_sets))

    def dirty_count(self) -> int:
        return sum(flag & DIRTY for flags in self._flags for flag in flags)
