"""Tests for the set-associative LRU cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.lru import DIRTY, LRUCache


def test_miss_then_hit():
    cache = LRUCache(num_sets=4, assoc=2)
    first = cache.access(0, is_write=False)
    assert not first.hit
    second = cache.access(0, is_write=False)
    assert second.hit
    assert second.stack_position == 0


def test_stack_positions_follow_lru_order():
    cache = LRUCache(num_sets=1, assoc=4)
    for block in range(4):
        cache.access(block, is_write=False)
    # block 0 is now LRU (position 3), block 3 is MRU (position 0).
    assert cache.access(0, is_write=False).stack_position == 3
    # After that access block 0 is MRU again.
    assert cache.access(0, is_write=False).stack_position == 0


def test_eviction_is_lru():
    cache = LRUCache(num_sets=1, assoc=2)
    cache.access(0, is_write=False)
    cache.access(1, is_write=False)
    result = cache.access(2, is_write=False)
    assert result.victim is not None
    assert result.victim.tag == cache.tag_of(0)


def test_write_sets_dirty():
    cache = LRUCache(num_sets=2, assoc=2)
    cache.access(0, is_write=True)
    assert cache.lookup(0).dirty
    cache.access(1, is_write=False)
    assert not cache.lookup(1).dirty


def test_dirty_victim_reported():
    cache = LRUCache(num_sets=1, assoc=1)
    cache.access(0, is_write=True)
    result = cache.access(1, is_write=False)
    assert result.victim.dirty


def test_mark_clean_eager():
    cache = LRUCache(num_sets=1, assoc=2)
    cache.access(0, is_write=True)
    assert cache.mark_clean(0, eager=True)
    line = cache.lookup(0)
    assert not line.dirty and line.eager_cleaned


def test_mark_clean_on_clean_line_returns_false():
    cache = LRUCache(num_sets=1, assoc=2)
    cache.access(0, is_write=False)
    assert not cache.mark_clean(0)
    assert not cache.mark_clean(99)


def test_rewrite_of_eager_cleaned_line_detected():
    """Dirtying an eager-cleaned line means the eager write was wasted."""
    cache = LRUCache(num_sets=1, assoc=2)
    cache.access(0, is_write=True)
    cache.mark_clean(0, eager=True)
    result = cache.access(0, is_write=True)
    assert result.hit and result.rewrote_eager_clean
    line = cache.lookup(0)
    assert line.dirty and not line.eager_cleaned


def test_plain_rewrite_not_flagged():
    cache = LRUCache(num_sets=1, assoc=2)
    cache.access(0, is_write=True)
    result = cache.access(0, is_write=True)
    assert not result.rewrote_eager_clean


def test_set_and_tag_mapping_roundtrip():
    cache = LRUCache(num_sets=8, assoc=2)
    for block in (0, 7, 8, 123):
        s, t = cache.set_index(block), cache.tag_of(block)
        assert cache.block_of(s, t) == block


def test_dirty_lines_in_set_order():
    cache = LRUCache(num_sets=1, assoc=4)
    cache.access(0, is_write=True)
    cache.access(1, is_write=False)
    cache.access(2, is_write=True)
    # The set's columns are MRU-first: block 2 at position 0, block 0 at
    # position 2, and only those two carry the dirty flag.
    pairs = [(position, cache.block_of(0, tag))
             for position, (tag, flag)
             in enumerate(zip(cache._tag_sets[0], cache._flags[0]))
             if flag & DIRTY]
    assert pairs == [(0, 2), (2, 0)]


def test_occupancy_and_dirty_count():
    cache = LRUCache(num_sets=2, assoc=2)
    cache.access(0, is_write=True)
    cache.access(1, is_write=False)
    assert cache.occupancy() == 2
    assert cache.dirty_count() == 1


def test_from_geometry():
    cache = LRUCache.from_geometry(2 * 1024 * 1024, 16, 64)
    assert cache.num_sets == 2048
    assert cache.assoc == 16


def test_invalid_geometry():
    with pytest.raises(ValueError):
        LRUCache.from_geometry(1000, 16, 64)
    with pytest.raises(ValueError):
        LRUCache(0, 4)


@given(
    blocks=st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200),
)
@settings(max_examples=50)
def test_occupancy_never_exceeds_capacity(blocks):
    cache = LRUCache(num_sets=4, assoc=2)
    for block in blocks:
        cache.access(block, is_write=block % 3 == 0)
    assert cache.occupancy() <= 8
    for set_index in range(4):
        assert (len(cache._tag_sets[set_index])
                == len(cache._flags[set_index])
                == len(cache._touches[set_index]) <= 2)


@given(
    blocks=st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                    max_size=300),
)
@settings(max_examples=50)
def test_lru_inclusion_property(blocks):
    """Stack property: anything resident in a 2-way cache is also resident
    in a 4-way cache with the same set count (LRU is a stack algorithm)."""
    small = LRUCache(num_sets=2, assoc=2)
    large = LRUCache(num_sets=2, assoc=4)
    for block in blocks:
        small.access(block, is_write=False)
        large.access(block, is_write=False)
    for set_index in range(2):
        small_tags = set(small._tag_sets[set_index])
        large_tags = set(large._tag_sets[set_index])
        assert small_tags <= large_tags
