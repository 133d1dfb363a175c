"""Trace records consumed by the simplified core.

A trace is an (infinite) iterator of :class:`TraceRecord`.  Records are at
*post-L2* granularity: each one is an access that reaches the LLC, preceded
by ``gap_insts`` instructions that hit in upper cache levels or touch no
memory at all.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple


class _TraceRecordBase(NamedTuple):
    gap_insts: int
    block: int
    is_write: bool
    dependent: bool = False


class TraceRecord(_TraceRecordBase):
    """One LLC access.

    Attributes:
        gap_insts: instructions executed since the previous LLC access.
        block: global cacheline block index.
        is_write: True for a store (the LLC line becomes dirty).
        dependent: True when program progress blocks on this load's value
            (pointer chases, address computations).  Stores are never
            dependent.

    A named tuple rather than a dataclass: traces run to hundreds of
    thousands of records per simulation, and tuple construction is several
    times cheaper than frozen-dataclass construction.  ``__new__`` keeps
    the field validation; the profile trace generator
    (:class:`repro.workloads.profiles.ProfileTrace`), whose records are
    valid by construction, bypasses it with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, gap_insts: int, block: int, is_write: bool,
                dependent: bool = False) -> "TraceRecord":
        if gap_insts < 0:
            raise ValueError("gap_insts cannot be negative")
        if block < 0:
            raise ValueError("block cannot be negative")
        if is_write and dependent:
            raise ValueError("stores cannot be dependent")
        return _TraceRecordBase.__new__(
            cls, gap_insts, block, is_write, dependent)


def replay(records: Iterable[TraceRecord], repeats: int = 1) -> Iterator[TraceRecord]:
    """Cycle a finite record list ``repeats`` times (testing helper)."""
    materialised: List[TraceRecord] = list(records)
    for _ in range(repeats):
        yield from materialised
