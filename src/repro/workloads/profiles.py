"""Synthetic stand-ins for the paper's workloads (Table IV).

Each profile composes the patterns of :mod:`repro.workloads.patterns` so
that the traffic reaching the LLC matches the published character of the
benchmark: miss rate (MPKI with a 2 MB LLC, Table IV), write intensity,
row/bank locality, reuse of dirty lines, and latency dependence.  Absolute
fidelity to SPEC binaries is impossible offline; what the Mellow Writes
mechanisms react to is exactly the parameter set modeled here.

The profile fields:

* ``apki``        - LLC *accesses* per kilo-instruction (misses emerge from
  footprint/locality; tests check the resulting MPKI against Table IV).
* ``base_cpi``    - non-memory CPI of the core, setting the IPC ceiling.
* ``build_patterns`` - weighted stateful pattern mix, built fresh per trace.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from math import log
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.cpu.trace import TraceRecord
from repro.workloads.patterns import (
    HotSet,
    Pattern,
    PointerChase,
    RandomAccess,
    ReadModifyWrite,
    SequentialStream,
)

WeightedPatterns = List[Tuple[float, Pattern]]

# Region sizing constants, in 64 B blocks.
MB = 1024 * 1024 // 64          # blocks per MiB
_REGION_GAP = 512 * MB          # keep component regions well apart


@dataclass(frozen=True)
class WorkloadProfile:
    """One synthetic workload."""

    name: str
    mpki_paper: float
    apki: float
    base_cpi: float
    build_patterns: Callable[[], WeightedPatterns]

    def trace(self, seed: int = 1) -> Iterator[TraceRecord]:
        """An infinite, deterministic trace of LLC accesses."""
        # crc32, not hash(): str hashing is randomized per interpreter, so
        # seeding from it would make results differ across processes - the
        # parallel sweep engine requires a trace fully determined by
        # (workload, seed).
        name_seed = zlib.crc32(self.name.encode())
        rng = random.Random((name_seed ^ seed) & 0x7FFFFFFF)
        patterns = self.build_patterns()
        weights = [w for w, _ in patterns]
        total = sum(weights)
        if total <= 0:
            raise ValueError(f"{self.name}: pattern weights must be positive")
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        return ProfileTrace(rng, patterns, cumulative, 1000.0 / self.apki)


class ProfileTrace:
    """A profile's infinite record stream.

    Per record: pick a pattern by drawing ``rng.random()`` against the
    cumulative weights, take the pattern's own draws, then draw the
    instruction gap as ``expovariate(1.0 / mean_gap)``.  The patterns run
    as compiled closures (:meth:`Pattern.compile_fast`, whose draws match
    :meth:`Pattern.next` exactly), ``expovariate`` is inlined to CPython's
    own expression ``-log(1.0 - random()) / lambd`` with ``lambd = 1.0 /
    mean_gap`` - the same division in the same order, hence the same
    floats - and records are built with ``tuple.__new__``, skipping
    :class:`TraceRecord`'s field validation (every record here satisfies
    it by construction: gaps are non-negative ints, blocks are region
    bases plus non-negative offsets, and no pattern emits a dependent
    store).

    ``raw_parts`` hands out the bound ``rng.random`` and the compiled
    closures themselves so
    :meth:`repro.cache.llc.LastLevelCache.warm_chunk` can inline the draw
    sequence into its own frame - no generator resume and no record per
    access.  Switching between that and the record stream at any point
    is sound because every draw goes through the shared ``rng`` and every
    cursor lives on the pattern objects, never in a generator frame.

    ``next_record`` is the record generator's bound ``__next__``: the
    core's loop calls it directly, skipping the ``builtins.next`` and
    ``__next__`` wrapper frames the iterator protocol would add per
    record.

    ``rng`` and ``patterns`` exist for :mod:`repro.checkpoint`: restoring
    those two restores the whole trace, because the generator frame holds
    no state between yields.
    """

    __slots__ = ("raw_parts", "next_record", "rng", "patterns")

    def __init__(self, rng: random.Random, patterns: WeightedPatterns,
                 cumulative: List[float], mean_gap: float) -> None:
        compiled = [
            (cum, pattern.compile_fast(rng))
            for cum, (_, pattern) in zip(cumulative, patterns)
        ]
        fallback = compiled[-1][1]
        rnd = rng.random
        lambd = 1.0 / mean_gap
        self.rng = rng
        self.patterns = [pattern for _, pattern in patterns]
        self.raw_parts = (rnd, compiled, fallback)
        self.next_record = self._record_gen(
            rnd, compiled, fallback, lambd).__next__

    def __iter__(self) -> "Iterator[TraceRecord]":
        return self

    def __next__(self) -> TraceRecord:
        return self.next_record()

    @staticmethod
    def _record_gen(rnd, compiled, fallback,
                    lambd) -> Iterator[TraceRecord]:   # simlint: hotpath
        new = tuple.__new__
        record_cls = TraceRecord
        while True:
            r = rnd()
            for cum, fast_next in compiled:
                if r <= cum:
                    chosen = fast_next
                    break
            else:
                chosen = fallback
            block, is_write, dependent = chosen()
            yield new(record_cls, (int(-log(1.0 - rnd()) / lambd),
                                   block, is_write, dependent))


def _region(index: int) -> int:
    """Base block address of the index-th component region."""
    return index * _REGION_GAP


# ---------------------------------------------------------------------------
# Profile definitions
# ---------------------------------------------------------------------------

def _leslie3d() -> WeightedPatterns:
    # Finite-volume fluid solver: several array sweeps, heavy result writes,
    # modest miss rate but a high write *rate* per second (short lifetime
    # at fast writes in Figure 2).
    return [
        (0.35, SequentialStream(_region(0), 48 * MB, write_ratio=0.05)),
        (0.30, SequentialStream(_region(1), 48 * MB, write_ratio=0.85)),
        (0.25, HotSet(_region(2), 16 * MB, hot_blocks=12 * MB // 16,
                      hot_fraction=0.92, write_ratio=0.30)),
        (0.10, RandomAccess(_region(3), 32 * MB, write_ratio=0.20,
                            dependent=True)),
    ]


def _gemsfdtd() -> WeightedPatterns:
    # FDTD field updates: wide streaming sweeps, read-mostly with a strong
    # write stream for the updated fields.
    return [
        (0.45, SequentialStream(_region(0), 96 * MB, write_ratio=0.10)),
        (0.30, SequentialStream(_region(1), 96 * MB, write_ratio=0.65)),
        (0.15, HotSet(_region(2), 8 * MB, hot_blocks=8 * MB // 24,
                      hot_fraction=0.90, write_ratio=0.20)),
        (0.10, RandomAccess(_region(3), 64 * MB, write_ratio=0.10,
                            dependent=True)),
    ]


def _libquantum() -> WeightedPatterns:
    # Quantum register simulation: one huge sequential sweep, mostly loads
    # with in-place updates of the amplitude array.
    return [
        (0.80, SequentialStream(_region(0), 128 * MB, write_ratio=0.25)),
        (0.15, HotSet(_region(1), 4 * MB, hot_blocks=4 * MB // 32,
                      hot_fraction=0.95, write_ratio=0.10)),
        (0.05, RandomAccess(_region(2), 32 * MB, write_ratio=0.10)),
    ]


def _hmmer() -> WeightedPatterns:
    # Profile HMM search: very cache friendly - a dominant hot working set
    # with bursty writes; few LLC misses (MPKI 1.34).
    return [
        (0.94, HotSet(_region(0), 24 * MB, hot_blocks=24 * 1024 // 64 * 24,
                      hot_fraction=0.978, write_ratio=0.45)),
        (0.06, SequentialStream(_region(1), 24 * MB, write_ratio=0.40)),
    ]


def _zeusmp() -> WeightedPatterns:
    # Astrophysical CFD: blocked sweeps with decent reuse.
    return [
        (0.40, SequentialStream(_region(0), 64 * MB, write_ratio=0.20)),
        (0.25, SequentialStream(_region(1), 64 * MB, write_ratio=0.55)),
        (0.25, HotSet(_region(2), 16 * MB, hot_blocks=14 * MB // 16,
                      hot_fraction=0.93, write_ratio=0.25)),
        (0.10, RandomAccess(_region(3), 32 * MB, write_ratio=0.15,
                            dependent=True)),
    ]


def _bwaves() -> WeightedPatterns:
    # Blast-wave solver: read-dominant streaming with strided matrix walks.
    return [
        (0.50, SequentialStream(_region(0), 96 * MB, write_ratio=0.10)),
        (0.20, SequentialStream(_region(1), 96 * MB, write_ratio=0.45,
                                stride=3)),
        (0.20, HotSet(_region(2), 16 * MB, hot_blocks=12 * MB // 16,
                      hot_fraction=0.92, write_ratio=0.15)),
        (0.10, RandomAccess(_region(3), 48 * MB, write_ratio=0.10,
                            dependent=True)),
    ]


def _milc() -> WeightedPatterns:
    # Lattice QCD: scattered site updates plus streaming gauge fields.
    return [
        (0.40, RandomAccess(_region(0), 96 * MB, write_ratio=0.30,
                            dependent=True)),
        (0.35, SequentialStream(_region(1), 96 * MB, write_ratio=0.35)),
        (0.20, HotSet(_region(2), 8 * MB, hot_blocks=8 * MB // 24,
                      hot_fraction=0.88, write_ratio=0.25)),
        (0.05, SequentialStream(_region(3), 64 * MB, write_ratio=0.10)),
    ]


def _mcf() -> WeightedPatterns:
    # Network simplex: pointer chasing over a huge graph; read-dominated,
    # nearly every load gates progress (lowest IPC in the suite).
    return [
        (0.70, PointerChase(_region(0), 192 * MB, write_ratio=0.18)),
        (0.20, RandomAccess(_region(1), 128 * MB, write_ratio=0.25)),
        (0.10, HotSet(_region(2), 8 * MB, hot_blocks=8 * MB // 32,
                      hot_fraction=0.90, write_ratio=0.20)),
    ]


def _lbm() -> WeightedPatterns:
    # Lattice-Boltzmann: the suite's write monster - paired read/write
    # sweeps over the whole lattice every timestep.
    return [
        (0.45, SequentialStream(_region(0), 128 * MB, write_ratio=0.08)),
        (0.45, SequentialStream(_region(1), 128 * MB, write_ratio=0.88)),
        (0.10, HotSet(_region(2), 4 * MB, hot_blocks=4 * MB // 32,
                      hot_fraction=0.90, write_ratio=0.30)),
    ]


def _stream() -> WeightedPatterns:
    # STREAM triad: a[i] = b[i] + s*c[i] - two read streams, one write
    # stream, no reuse, maximum bandwidth pressure.
    return [
        (0.33, SequentialStream(_region(0), 64 * MB, write_ratio=0.0)),
        (0.33, SequentialStream(_region(1), 64 * MB, write_ratio=0.0)),
        (0.34, SequentialStream(_region(2), 64 * MB, write_ratio=1.0)),
    ]


def _gups() -> WeightedPatterns:
    # GUPS: random read-modify-write updates over a huge table.
    return [
        (0.85, ReadModifyWrite(_region(0), 512 * MB,
                               dependent_reads=False)),
        (0.15, HotSet(_region(1), 4 * MB, hot_blocks=4 * MB // 32,
                      hot_fraction=0.90, write_ratio=0.30)),
    ]


PROFILES: Dict[str, WorkloadProfile] = {
    p.name: p
    for p in [
        WorkloadProfile("leslie3d", 5.95, apki=6.7, base_cpi=0.45,
                        build_patterns=_leslie3d),
        WorkloadProfile("GemsFDTD", 15.34, apki=16.5, base_cpi=0.50,
                        build_patterns=_gemsfdtd),
        WorkloadProfile("libquantum", 30.12, apki=34.0, base_cpi=0.40,
                        build_patterns=_libquantum),
        WorkloadProfile("hmmer", 1.34, apki=14.0, base_cpi=0.40,
                        build_patterns=_hmmer),
        WorkloadProfile("zeusmp", 4.53, apki=5.0, base_cpi=0.50,
                        build_patterns=_zeusmp),
        WorkloadProfile("bwaves", 5.58, apki=6.0, base_cpi=0.50,
                        build_patterns=_bwaves),
        WorkloadProfile("milc", 19.49, apki=22.0, base_cpi=0.50,
                        build_patterns=_milc),
        WorkloadProfile("mcf", 56.34, apki=58.0, base_cpi=0.80,
                        build_patterns=_mcf),
        WorkloadProfile("lbm", 31.72, apki=33.5, base_cpi=0.45,
                        build_patterns=_lbm),
        WorkloadProfile("stream", 12.28, apki=12.3, base_cpi=0.35,
                        build_patterns=_stream),
        WorkloadProfile("gups", 8.91, apki=19.0, base_cpi=0.50,
                        build_patterns=_gups),
    ]
}

WORKLOAD_NAMES: Sequence[str] = tuple(PROFILES)


def get_profile(name: str) -> WorkloadProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(PROFILES)
        raise KeyError(f"unknown workload {name!r} (known: {known})") from None
