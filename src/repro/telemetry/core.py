"""Telemetry facade: the one object the simulator threads everywhere.

Components receive a :class:`Telemetry` instance and guard every
instrumentation site with ``if tel.enabled:``.  When telemetry is off
they get the :data:`NULL_TELEMETRY` singleton whose ``enabled`` is the
class-level constant ``False`` - so the disabled hot path costs exactly
one attribute load and a branch, nothing else (verified by
``benchmarks/check_telemetry_overhead.py``).

Crucially, telemetry is *read-only* with respect to the simulation: it
never draws randomness, never schedules events, and never feeds a value
back into a decision, so a traced run is bit-identical to an untraced
one and shares its cache key.

``write()`` lays down the output directory::

    metrics.json        epoch-sampled time series + histograms
    heatmap.json        per-bank wear matrix (cumulative + deltas)
    trace.jsonl         raw event records, one JSON object per line
    trace.chrome.json   Chrome trace_event format (open in Perfetto)
    manifest.json       index + ring/drop statistics, written last

Each file is written atomically (temp file + ``os.replace``) and the
manifest goes last, so a directory containing ``manifest.json`` is
always a complete bundle - the result cache relies on this.  The two
trace files are streamed a chunk at a time, so export memory does not
grow with the ring.

The instruments and the exporters are imported when a :class:`Telemetry`
is built or written, not with this module: a run with telemetry off
needs only :data:`NULL_TELEMETRY`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (Any, Callable, ClassVar, Dict, Iterable, List, NoReturn,
                    Optional, Sequence)

MANIFEST_NAME = "manifest.json"
TELEMETRY_SCHEMA_VERSION = 1

Clock = Callable[[], float]


class Telemetry:
    """Live telemetry: metric registry + event tracer + wear heatmap.

    ``clock`` is a zero-argument callable returning the current simulated
    time in ns (typically ``lambda: events.now``); it exists so the
    facade can stamp epoch samples without holding a reference to the
    event queue (which is constructed after the telemetry object).
    """

    enabled: ClassVar[bool] = True

    def __init__(self, num_banks: int, clock: Clock,
                 trace_capacity: int = 65536) -> None:
        from repro.telemetry.heatmap import WearHeatmap
        from repro.telemetry.metrics import MetricRegistry
        from repro.telemetry.tracer import EventTracer

        self.num_banks = num_banks
        self.clock = clock
        self.metrics = MetricRegistry()
        self.tracer = EventTracer(capacity=trace_capacity)
        self.heatmap = WearHeatmap(num_banks)
        # Retired-line heatmap (fault injection): same epoch cadence as
        # the wear heatmap, rows of per-bank retired-line counts.  Stays
        # inert (no probe, no rows) unless faults are enabled.
        self.retired_heatmap = WearHeatmap(num_banks)

    # -- wiring ---------------------------------------------------------

    def set_wear_probe(self, probe: Callable[[], Sequence[float]]) -> None:
        self.heatmap.set_probe(probe)

    def set_retired_probe(self, probe: Callable[[], Sequence[float]]) -> None:
        self.retired_heatmap.set_probe(probe)

    # -- epoch boundary -------------------------------------------------

    def sample_epoch(self, now_ns: Optional[float] = None) -> None:
        """Close one epoch: sample every metric and snapshot the heatmap.

        Called by ``System`` on the 500 us wear-quota boundary *before*
        the profiler counters are reset, and once more at end of run for
        the final partial epoch.
        """
        t = self.clock() if now_ns is None else now_ns
        self.metrics.sample(t)
        self.heatmap.snapshot(t)
        self.retired_heatmap.snapshot(t)   # no-op without a probe

    # -- export ---------------------------------------------------------

    def manifest(self) -> Dict[str, Any]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "num_banks": self.num_banks,
            "num_epochs": self.metrics.num_samples,
            "trace": {
                "capacity": self.tracer.capacity,
                "recorded": self.tracer.recorded,
                "dropped": self.tracer.dropped,
                "retained": len(self.tracer),
            },
            "files": ["metrics.json", "heatmap.json", "trace.jsonl",
                      "trace.chrome.json"],
        }

    def write(self, out_dir: Path) -> List[Path]:
        """Write the full bundle into ``out_dir``; manifest goes last."""
        from repro.store.codec import atomic_write_text
        from repro.telemetry.tracer import chrome_trace_chunks

        out_dir = Path(out_dir)
        written: List[Path] = []

        metrics_path = out_dir / "metrics.json"
        atomic_write_text(metrics_path, json.dumps(
            self.metrics.to_dict(), indent=2, sort_keys=True))
        written.append(metrics_path)

        heatmap_path = out_dir / "heatmap.json"
        heatmap_payload = self.heatmap.to_dict()
        if self.retired_heatmap.active:
            # Only fault-enabled runs grow this key, so bundles from
            # ordinary runs stay byte-identical to earlier versions.
            heatmap_payload["retired"] = self.retired_heatmap.to_dict()
        atomic_write_text(heatmap_path, json.dumps(
            heatmap_payload, indent=2, sort_keys=True))
        written.append(heatmap_path)

        # The trace files scale with the ring; they stream chunk by chunk.
        jsonl_path = out_dir / "trace.jsonl"
        _write_text_chunks(jsonl_path, self.tracer.jsonl_chunks())
        written.append(jsonl_path)

        chrome_path = out_dir / "trace.chrome.json"
        _write_text_chunks(chrome_path,
                           chrome_trace_chunks(self.tracer, self.metrics))
        written.append(chrome_path)

        manifest_path = out_dir / MANIFEST_NAME
        atomic_write_text(manifest_path, json.dumps(
            self.manifest(), indent=2, sort_keys=True))
        written.append(manifest_path)
        return written


def _write_text_chunks(path: Path, chunks: Iterable[str]) -> None:
    """Atomically write UTF-8 text drawn chunk by chunk."""
    from repro.store.codec import atomic_write_chunks

    atomic_write_chunks(path, (chunk.encode("utf-8") for chunk in chunks))


class NullTelemetry(Telemetry):
    """Disabled telemetry: same interface, ``enabled`` is ``False``.

    Instrumented components only ever touch ``.enabled`` on this object,
    so construction cost is irrelevant and no instrument state exists.
    The methods below raise if something forgets its guard - better a
    loud failure in tests than silent overhead in production runs.
    """

    enabled: ClassVar[bool] = False

    def __init__(self) -> None:
        # No super().__init__(): a null object carries no state.
        pass

    def _refuse(self, method: str) -> NoReturn:
        raise RuntimeError(
            f"NullTelemetry.{method} called - an instrumentation site is "
            "missing its 'if telemetry.enabled:' guard")

    def __getattr__(self, name: str) -> Any:
        # Covers .metrics/.tracer/.heatmap/.clock and anything new.
        # Dunder probes (copy/pickle protocols) must keep the normal
        # AttributeError contract.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        self._refuse(name)

    def sample_epoch(self, now_ns: Optional[float] = None) -> None:
        self._refuse("sample_epoch")

    def set_wear_probe(self, probe: Callable[[], Sequence[float]]) -> None:
        self._refuse("set_wear_probe")

    def set_retired_probe(self, probe: Callable[[], Sequence[float]]) -> None:
        self._refuse("set_retired_probe")

    def write(self, out_dir: Path) -> List[Path]:
        self._refuse("write")
        return []  # pragma: no cover - unreachable


#: Shared disabled-telemetry singleton; safe because it is stateless.
NULL_TELEMETRY = NullTelemetry()


def bundle_is_complete(out_dir: Path) -> bool:
    """True if ``out_dir`` holds a finished telemetry bundle.

    The manifest is written last, so its presence implies every other
    file landed.  Used by the runner to decide whether a cache hit also
    satisfies a telemetry request.
    """
    return (Path(out_dir) / MANIFEST_NAME).is_file()
