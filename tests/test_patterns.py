"""Tests for the workload access-pattern generators."""

import random

import pytest

from repro.workloads.patterns import (
    HotSet,
    Pattern,
    PhasedPattern,
    PointerChase,
    RandomAccess,
    ReadModifyWrite,
    SequentialStream,
)


def drain(pattern, n=1000, seed=1):
    rng = random.Random(seed)
    return [pattern.next(rng) for _ in range(n)]


class TestSequentialStream:
    def test_blocks_are_sequential_and_wrap(self):
        stream = SequentialStream(base=100, size_blocks=4)
        blocks = [b for b, _, _ in drain(stream, 6)]
        assert blocks == [100, 101, 102, 103, 100, 101]

    def test_stride(self):
        stream = SequentialStream(base=0, size_blocks=9, stride=3)
        blocks = [b for b, _, _ in drain(stream, 4)]
        assert blocks == [0, 3, 6, 0]

    def test_write_ratio_respected(self):
        stream = SequentialStream(base=0, size_blocks=1000, write_ratio=0.5)
        writes = sum(1 for _, w, _ in drain(stream, 4000) if w)
        assert 1700 < writes < 2300

    def test_never_dependent(self):
        stream = SequentialStream(base=0, size_blocks=10, write_ratio=0.3)
        assert all(not d for _, _, d in drain(stream, 100))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SequentialStream(0, 0)
        with pytest.raises(ValueError):
            SequentialStream(0, 10, write_ratio=1.5)
        with pytest.raises(ValueError):
            SequentialStream(0, 10, stride=0)


class TestRandomAccess:
    def test_blocks_within_region(self):
        pattern = RandomAccess(base=50, size_blocks=10)
        assert all(50 <= b < 60 for b, _, _ in drain(pattern))

    def test_dependent_reads_only(self):
        pattern = RandomAccess(base=0, size_blocks=100, write_ratio=0.5,
                               dependent=True)
        for _, is_write, dependent in drain(pattern):
            if is_write:
                assert not dependent
            else:
                assert dependent


class TestHotSet:
    def test_hot_fraction_concentrates_accesses(self):
        pattern = HotSet(base=0, size_blocks=10_000, hot_blocks=10,
                         hot_fraction=0.9)
        hot_hits = sum(1 for b, _, _ in drain(pattern, 5000) if b < 10)
        assert hot_hits > 4000

    def test_invalid_hot_blocks(self):
        with pytest.raises(ValueError):
            HotSet(0, 10, hot_blocks=20)


class TestPointerChase:
    def test_reads_are_dependent(self):
        pattern = PointerChase(base=0, size_blocks=100, write_ratio=0.2)
        for _, is_write, dependent in drain(pattern):
            assert dependent == (not is_write)


class TestReadModifyWrite:
    def test_read_then_write_same_block(self):
        pattern = ReadModifyWrite(base=0, size_blocks=1000)
        rng = random.Random(1)
        for _ in range(100):
            read_block, w1, dep = pattern.next(rng)
            write_block, w2, _ = pattern.next(rng)
            assert not w1 and w2
            assert read_block == write_block
            assert dep   # update reads gate the update


class TestPhasedPattern:
    def test_alternates_between_subpatterns(self):
        from repro.workloads.patterns import PhasedPattern
        a = SequentialStream(0, 10, write_ratio=0.0)
        b = SequentialStream(1000, 10, write_ratio=1.0)
        phased = PhasedPattern(a, b, phase_length=5)
        rng = random.Random(1)
        first_phase = [phased.next(rng) for _ in range(5)]
        second_phase = [phased.next(rng) for _ in range(5)]
        assert all(block < 1000 for block, _, _ in first_phase)
        assert all(block >= 1000 for block, _, _ in second_phase)
        assert all(w for _, w, _ in second_phase)

    def test_switches_back(self):
        from repro.workloads.patterns import PhasedPattern
        a = SequentialStream(0, 4)
        b = SequentialStream(100, 4)
        phased = PhasedPattern(a, b, phase_length=2)
        rng = random.Random(1)
        blocks = [phased.next(rng)[0] for _ in range(6)]
        assert blocks[0] < 100 and blocks[2] >= 100 and blocks[4] < 100

    def test_invalid_phase_length(self):
        from repro.workloads.patterns import PhasedPattern
        with pytest.raises(ValueError):
            PhasedPattern(SequentialStream(0, 4), SequentialStream(8, 4),
                          phase_length=0)


# ---------------------------------------------------------------------------
# ``next(rng)`` is the readable specification of each pattern; the trace
# generator runs ``compile_fast(rng)`` instead.  Both must draw the same
# accesses from the same generator state, draw for draw.
# ---------------------------------------------------------------------------

# Odd region sizes exercise randrange's rejection loop; small ones wrap.
PATTERN_FACTORIES = {
    SequentialStream: lambda: SequentialStream(
        7, 1001, write_ratio=0.3, stride=3),
    RandomAccess: lambda: RandomAccess(
        0, 3_000_017, write_ratio=0.4, dependent=True),
    HotSet: lambda: HotSet(
        50, 100_003, hot_blocks=771, hot_fraction=0.8, write_ratio=0.25),
    PointerChase: lambda: PointerChase(11, 65_537, write_ratio=0.2),
    ReadModifyWrite: lambda: ReadModifyWrite(0, 999_983),
    PhasedPattern: lambda: PhasedPattern(
        ReadModifyWrite(0, 5003, dependent_reads=False),
        HotSet(10**6, 9000, hot_blocks=300, write_ratio=0.5),
        phase_length=777),
}


def test_oracle_covers_every_pattern_class():
    assert set(PATTERN_FACTORIES) == set(Pattern.__subclasses__())


@pytest.mark.parametrize("pattern_cls", list(PATTERN_FACTORIES),
                         ids=lambda cls: cls.__name__)
def test_compile_fast_matches_next(pattern_cls):
    draws = 10_000
    spec_rng, fast_rng = random.Random(2024), random.Random(2024)
    spec = PATTERN_FACTORIES[pattern_cls]()
    expected = [spec.next(spec_rng) for _ in range(draws)]
    fast_next = PATTERN_FACTORIES[pattern_cls]().compile_fast(fast_rng)
    assert [fast_next() for _ in range(draws)] == expected
    assert fast_rng.getstate() == spec_rng.getstate()
