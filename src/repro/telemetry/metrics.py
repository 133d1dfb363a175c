"""Metric primitives and the epoch-sampled time-series registry.

Three instrument kinds, mirroring the usual observability trinity:

* :class:`Counter` - a cumulative, monotonically increasing total
  (writes issued, events executed, quota trips);
* :class:`Gauge` - a last-set instantaneous value (banks currently gated
  by Wear Quota);
* :class:`Histogram` - a fixed-bucket distribution (read latency).

On top of the instruments the :class:`MetricRegistry` keeps *probes*:
zero-argument callables evaluated only when a sample is taken, so state
that already lives in a component (queue occupancy, the profiler's
hit counters, per-bank busy time) can be exported without adding work to
any hot path.

:meth:`MetricRegistry.sample` is called once per wear-quota epoch (the
simulator's 500 us sample period) with the *simulated* timestamp; every
counter, gauge and probe value is appended to its per-series column, so
after a run ``series[name][i]`` is the value of ``name`` at the close of
epoch ``i``.  Instruments created after sampling has started are
back-filled with ``None`` so all columns stay aligned with
``sample_times_ns``.

Nothing in this module reads the host clock or mutates simulator state;
a registry is pure bookkeeping and never perturbs results.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple


@lru_cache(maxsize=None)
def bank_metric_name(index: int, suffix: str) -> str:
    """Canonical ``bank.NN.suffix`` metric name, computed once per pair.

    Every per-bank instrument and probe (controller counters, system
    probes) goes through this helper so the names are built once per
    process rather than re-formatted for every System constructed during
    a sweep, and so the naming convention lives in exactly one place.
    """
    return f"bank.{index:02d}.{suffix}"


#: Default read-latency histogram bucket upper bounds (ns).  Chosen to
#: straddle the interesting regimes: row hits (~60 ns), row misses,
#: writes-in-the-way, and multi-microsecond drain stalls.
READ_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    60.0, 120.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0,
    16_000.0, 64_000.0,
)


class Counter:
    """Cumulative total; sampled values are monotone nondecreasing."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-set instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram.

    ``bounds`` are inclusive upper edges; bucket ``i`` counts observations
    ``<= bounds[i]`` (and above the previous edge), with one extra
    overflow bucket for values beyond the last edge.  Bucket edges are
    fixed at construction - the hardware-counter analogue, and the reason
    two runs of the same config always produce comparable histograms.
    """

    __slots__ = ("name", "bounds", "counts")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError(f"bucket edges must strictly increase: {edges}")
        self.name = name
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_dict(self) -> Dict[str, Any]:
        return {"bounds": list(self.bounds), "counts": list(self.counts)}


Probe = Callable[[], float]


class MetricRegistry:
    """Instrument factory plus the per-epoch time-series store.

    Instruments are created lazily by name (``registry.counter("x")`` is
    get-or-create) so call sites never need registration boilerplate; a
    name is bound to exactly one instrument kind and reusing it for a
    different kind raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        # from_first_bump counters still at zero: not sampled yet.
        self._unbumped: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._probes: Dict[str, Probe] = {}
        self._names: Set[str] = set()
        self.sample_times_ns: List[float] = []
        self.series: Dict[str, List[Optional[float]]] = {}

    # -- instrument factories ------------------------------------------

    def _claim(self, name: str, kind: Dict[str, Any]) -> None:
        if name in self._names and name not in kind:
            raise ValueError(f"metric name {name!r} already used by another "
                             "instrument kind")
        self._names.add(name)

    def counter(self, name: str, *, from_first_bump: bool = False) -> Counter:
        """Get or create the counter ``name``.

        A counter created ``from_first_bump`` samples as if it had been
        created at its first increment: its series starts at the first
        sample that finds it nonzero, back-filled with ``None`` like any
        late instrument.  A call site can then resolve it once up front
        without adding a column of zeros for an event that may never
        happen.
        """
        existing = self._counters.get(name)
        if existing is None:
            self._claim(name, self._counters)
            existing = self._counters[name] = Counter(name)
            if from_first_bump:
                self._unbumped[name] = existing
        return existing

    def gauge(self, name: str) -> Gauge:
        existing = self._gauges.get(name)
        if existing is None:
            self._claim(name, self._gauges)
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(self, name: str,
                  bounds: Sequence[float] = READ_LATENCY_BUCKETS_NS,
                  ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is None:
            self._claim(name, self._histograms)
            existing = self._histograms[name] = Histogram(name, bounds)
        return existing

    def probe(self, name: str, fn: Probe) -> None:
        """Register (or replace) a callable polled at each sample."""
        self._claim(name, self._probes)
        self._probes[name] = fn

    def release(self) -> None:
        """Drop every probe after the final sample.

        They are closures over live simulator components; dropping them
        lets a finished run be freed by reference counting.  The sampled
        series stay, so the registry still exports.
        """
        self._probes.clear()

    # -- sampling -------------------------------------------------------

    def _append(self, index: int, name: str, value: float) -> None:
        column = self.series.get(name)
        if column is None:
            # Instrument born mid-run: pad so columns stay aligned.
            column = self.series[name] = [None] * index
        column.append(value)

    def sample(self, now_ns: float) -> None:
        """Record one epoch: snapshot every instrument and probe."""
        index = len(self.sample_times_ns)
        self.sample_times_ns.append(now_ns)
        unbumped = self._unbumped
        for name in [name for name, counter in unbumped.items()
                     if counter.value]:
            del unbumped[name]
        for name, counter in self._counters.items():
            if name not in unbumped:
                self._append(index, name, counter.value)
        for name, gauge in self._gauges.items():
            self._append(index, name, gauge.value)
        for name, fn in self._probes.items():
            self._append(index, name, float(fn()))

    @property
    def num_samples(self) -> int:
        return len(self.sample_times_ns)

    # -- export ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump: aligned series plus final histogram states."""
        return {
            "sample_times_ns": list(self.sample_times_ns),
            "series": {name: list(col) for name, col in
                       sorted(self.series.items())},
            "histograms": {name: hist.to_dict() for name, hist in
                           sorted(self._histograms.items())},
        }
