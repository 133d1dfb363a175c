"""In-memory spans recorded from the benchmark's own files.

A span is ``(name, start, end, parent)``: host seconds from
:func:`clock.now` and the index of the enclosing span (-1 for a root).
Spans are kept in a list and written out with the report.  A span's
self time is its duration minus the durations of its children; the
tracer is single-threaded, so children never overlap and that
difference is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Sequence

from clock import now

Span = List  # [name, start, end, parent]


class Tracer:
    """Records nested spans around calls into the simulator's layers."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, now(), 0.0, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            record[2] = now()


class NullTracer:
    """Tracing off: the same interface, recording nothing."""

    enabled = False
    spans: List[Span] = []

    def span(self, name: str) -> "contextlib.nullcontext[int]":
        return contextlib.nullcontext(-1)


def duration(span: Span) -> float:
    return span[2] - span[1]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its children's durations."""
    result = [duration(span) for span in spans]
    for span in spans:
        if span[3] >= 0:
            result[span[3]] -= duration(span)
    return result


def descendants(spans: Sequence[Span], root: int) -> List[int]:
    """Indices of every span below ``root`` (spans are stored in start order)."""
    inside = {root}
    found = []
    for index in range(root + 1, len(spans)):
        if spans[index][3] in inside:
            inside.add(index)
            found.append(index)
    return found


def cost_per_span(samples: int = 20000) -> float:
    """Host seconds one recorded span costs, measured on a scratch tracer."""
    tracer = Tracer()
    start = now()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (now() - start) / samples
