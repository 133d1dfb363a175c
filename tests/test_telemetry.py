"""Telemetry subsystem: primitives, bit-identity, bundles, sweeps.

The headline invariant is reproducibility: telemetry observes the
simulation but never perturbs it, so a traced run returns a RunResult
equal to the untraced run of the same config and shares its cache key.
Everything else (ring capacity, Chrome export validity, serial/parallel
bundle equality) protects the observability outputs themselves.
"""

import copy
import json
import random
import tracemalloc
from collections import deque
from dataclasses import replace

import pytest

from repro.experiments.runner import Runner
from repro.sim.config import SimConfig
from repro.sim.system import run_simulation
from repro.store import cache_clear, cache_stats
from repro.telemetry import (
    EV_CANCEL,
    EV_COMPLETE,
    EV_ENQUEUE,
    EV_ISSUE,
    EV_QUOTA_TRIP,
    EVENT_KINDS,
    MANIFEST_NAME,
    NULL_TELEMETRY,
    EventTracer,
    MetricRegistry,
    NullTelemetry,
    Telemetry,
    WearHeatmap,
    bundle_is_complete,
    chrome_trace,
    chrome_trace_json,
)
from repro.telemetry.tracer import _CHUNK_RECORDS, TraceEvent

TINY = dict(warmup_accesses=2000, measure_accesses=3000,
            llc_size_bytes=128 * 1024)

BUNDLE_FILES = ("metrics.json", "heatmap.json", "trace.jsonl",
                "trace.chrome.json", "manifest.json")


def tiny_config(**kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    return SimConfig(workload=merged.pop("workload", "GemsFDTD"), **merged)


# --------------------------------------------------------------------------
# Metric registry
# --------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_probe_sampling(self):
        reg = MetricRegistry()
        writes = reg.counter("writes")
        gated = reg.gauge("gated")
        depth = [3]
        reg.probe("depth", lambda: depth[0])

        writes.inc()
        writes.inc(2.0)
        gated.set(5.0)
        reg.sample(500_000.0)
        depth[0] = 7
        reg.sample(1_000_000.0)

        dump = reg.to_dict()
        assert dump["sample_times_ns"] == [500_000.0, 1_000_000.0]
        assert dump["series"]["writes"] == [3.0, 3.0]
        assert dump["series"]["gated"] == [5.0, 5.0]
        assert dump["series"]["depth"] == [3.0, 7.0]

    def test_instruments_are_get_or_create(self):
        reg = MetricRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")

    def test_name_kind_collision_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already used"):
            reg.gauge("x")

    def test_late_instrument_is_backfilled_with_none(self):
        reg = MetricRegistry()
        reg.counter("early")
        reg.sample(1.0)
        late = reg.counter("late")
        late.inc()
        reg.sample(2.0)
        dump = reg.to_dict()
        assert dump["series"]["early"] == [0.0, 0.0]
        assert dump["series"]["late"] == [None, 1.0]

    def test_from_first_bump_counter_samples_like_a_late_counter(self):
        """A counter resolved up front with ``from_first_bump`` must
        sample exactly as one created at its first increment."""
        eager, lazy = MetricRegistry(), MetricRegistry()
        early = eager.counter("demotions", from_first_bump=True)
        never = eager.counter("never", from_first_bump=True)
        for registry in (eager, lazy):
            registry.sample(1.0)
        early.inc()
        lazy.counter("demotions").inc()
        for registry in (eager, lazy):
            registry.sample(2.0)
            registry.sample(3.0)
        assert eager.to_dict() == lazy.to_dict()
        assert eager.series["demotions"] == [None, 1.0, 1.0]
        assert "never" not in eager.series
        assert eager.counter("never") is never

    def test_histogram_buckets_and_overflow(self):
        reg = MetricRegistry()
        hist = reg.histogram("lat", bounds=(10.0, 100.0))
        for value in (5.0, 10.0, 50.0, 1000.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]   # <=10, <=100, overflow
        assert hist.total == 4
        assert reg.to_dict()["histograms"]["lat"]["bounds"] == [10.0, 100.0]

    def test_histogram_rejects_bad_bounds(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.histogram("empty", bounds=())
        with pytest.raises(ValueError):
            reg.histogram("unsorted", bounds=(5.0, 1.0))


# --------------------------------------------------------------------------
# Event tracer ring buffer
# --------------------------------------------------------------------------

class TestTracer:
    def test_ring_honors_capacity_and_counts_drops(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.record(float(i), EV_ISSUE, bank=0, req_id=i)
        assert len(tracer) == 4
        assert tracer.recorded == 10
        assert tracer.dropped == 6
        # Oldest evicted: the ring holds exactly the last four records.
        assert [ev.req_id for ev in tracer.events()] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_jsonl_roundtrip(self):
        tracer = EventTracer(capacity=8)
        tracer.record(100.0, EV_ISSUE, bank=2, block=7, req_id=1,
                      factor=3.0, detail="write")
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {"t_ns": 100.0, "kind": EV_ISSUE, "bank": 2,
                          "block": 7, "req_id": 1, "factor": 3.0,
                          "detail": "write"}

    def test_empty_tracer_exports_empty_jsonl(self):
        assert EventTracer(capacity=4).to_jsonl() == ""


_CHUNK = _CHUNK_RECORDS


def random_records(count, seed):
    """A record stream with every field type the ring packs: float and
    integer factors, -1 sentinels, blocks beyond 32 bits and many
    distinct details."""
    rng = random.Random(seed)
    records = []
    for index in range(count):
        factor = rng.choice([0.0, 1.0, 2.5, 3.0, 3])    # 3: an int factor
        records.append((
            index * 1.25 + rng.random(), rng.choice(EVENT_KINDS),
            rng.choice([-1, rng.randrange(16)]),
            rng.choice([-1, rng.randrange(2**40)]),
            rng.choice([-1, index]), factor,
            rng.choice(["", "read", "write", f"retry={rng.randrange(9)}",
                        f"exceed={rng.random():.4g}"])))
    return records


class DequeRing:
    """Reference model: the ring as a ``deque(maxlen=capacity)`` of
    tuples, read through the tracer's interface."""

    def __init__(self, capacity):
        self.ring = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, *record):
        self.recorded += 1
        self.ring.append(record)

    def _records(self):
        return iter(self.ring)

    def column(self, field):
        return (record[field] for record in self.ring)


def reference_jsonl(ring):
    return "".join(json.dumps(dict(zip(TraceEvent.__dataclass_fields__,
                                       record)), separators=(",", ":"))
                   + "\n" for record in ring)


class TestPackedRing:
    """The chunked, packed ring reads exactly like a deque of tuples."""

    @pytest.mark.parametrize("capacity", [
        1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    @pytest.mark.parametrize("length", ["below", "at", "far-above"])
    def test_matches_a_deque(self, capacity, length):
        count = {"below": capacity // 2, "at": capacity,
                 "far-above": 4 * capacity + 2 * _CHUNK + 3}[length]
        records = random_records(count, seed=capacity)
        tracer, reference = EventTracer(capacity), DequeRing(capacity)
        for record in records:
            tracer.record(*record)
            reference.record(*record)
        assert len(tracer) == len(reference.ring)
        assert tracer.recorded == reference.recorded == count
        assert tracer.dropped == count - len(reference.ring)
        assert tracer.events() == [TraceEvent(*r) for r in reference.ring]
        jsonl = tracer.to_jsonl()
        assert jsonl == reference_jsonl(reference.ring)
        assert chrome_trace_json(tracer) == chrome_trace_json(reference)
        # The exports keep every value's Python type: an int factor
        # stays "3", never "3.0".
        assert [type(event.factor) for event in tracer.events()] == \
            [type(record[5]) for record in reference.ring]

    def test_packed_chunks_are_smaller_than_tuples(self):
        """A full ring of packed chunks costs a fraction of the tuples
        and number objects a deque of records keeps alive."""
        def retained(ring):
            tracemalloc.start()
            try:
                for record in random_records(4 * _CHUNK, seed=1):
                    ring.record(*record)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        packed = retained(EventTracer(4 * _CHUNK))
        tuples = retained(DequeRing(4 * _CHUNK))
        assert packed < tuples / 2, (packed, tuples)

    def test_load_rebuilds_the_window(self):
        records = random_records(3 * _CHUNK + 5, seed=2)
        tracer = EventTracer(_CHUNK + 1)
        for record in records:
            tracer.record(*record)
        loaded = EventTracer(_CHUNK + 1)
        loaded.load(tracer.recorded, tracer._records())
        assert loaded.recorded == tracer.recorded
        assert loaded.events() == tracer.events()
        with pytest.raises(ValueError, match="ring holds"):
            loaded.load(tracer.recorded, records[:3])


class TestChromeTrace:
    def test_issue_complete_pairs_become_slices(self):
        tracer = EventTracer(capacity=16)
        tracer.record(100.0, EV_ISSUE, bank=1, req_id=5, factor=3.0,
                      detail="write")
        tracer.record(400.0, EV_COMPLETE, bank=1, req_id=5, factor=3.0)
        doc = chrome_trace(tracer)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        slab = slices[0]
        assert slab["name"] == "write x3"
        assert slab["ts"] == pytest.approx(0.1)    # 100 ns -> 0.1 us
        assert slab["dur"] == pytest.approx(0.3)
        assert slab["tid"] == 2                    # bank 1 -> track 2

    def test_cancel_closes_slice_with_annotation(self):
        tracer = EventTracer(capacity=16)
        tracer.record(0.0, EV_ISSUE, bank=0, req_id=1, detail="write")
        tracer.record(50.0, EV_CANCEL, bank=0, req_id=1)
        doc = chrome_trace(tracer)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices[0]["name"].endswith("(cancelled)")
        assert slices[0]["args"]["outcome"] == EV_CANCEL

    def test_orphan_closer_becomes_instant(self):
        tracer = EventTracer(capacity=16)
        tracer.record(10.0, EV_COMPLETE, bank=0, req_id=9)
        doc = chrome_trace(tracer)
        assert [e["ph"] for e in doc["traceEvents"] if e["ph"] == "X"] == []
        assert any(e["ph"] == "i" for e in doc["traceEvents"])

    def test_metric_series_become_counter_tracks(self):
        tracer = EventTracer(capacity=4)
        reg = MetricRegistry()
        reg.counter("writes").inc(4.0)
        reg.sample(500_000.0)
        doc = chrome_trace(tracer, reg)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters == [{"name": "writes", "ph": "C", "pid": 1,
                             "tid": 0, "ts": 500.0,
                             "args": {"value": 4.0}}]

    def test_document_is_json_serialisable(self):
        tracer = EventTracer(capacity=4)
        tracer.record(0.0, EV_QUOTA_TRIP, bank=3, detail="exceed=1.2")
        text = json.dumps(chrome_trace(tracer))
        doc = json.loads(text)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert {e["ph"] for e in doc["traceEvents"]} <= {"M", "i", "X", "C"}

    def test_text_export_is_canonical_compact_json(self):
        """The hand-rolled serialiser must emit exactly what a generic
        ``json.dumps`` pass over its parsed document would - any float
        formatting or escaping drift shows up as a byte diff here."""
        tracer = EventTracer(capacity=8)
        tracer.record(100.0, EV_ISSUE, bank=1, req_id=5, factor=3.0,
                      detail="write")
        tracer.record(433.25, EV_COMPLETE, bank=1, req_id=5, factor=3.0)
        tracer.record(500.0, EV_ISSUE, bank=0, req_id=6, detail="read")
        tracer.record(600.0, EV_CANCEL, bank=0, req_id=6)
        tracer.record(610.0, EV_COMPLETE, bank=2, req_id=99)  # orphan
        tracer.record(700.0, EV_QUOTA_TRIP, bank=3,
                      detail='exceed="1.2"\n')  # needs escaping
        tracer.record(800.0, EV_ISSUE, bank=2, req_id=7,
                      detail="write")  # still open at ring end
        reg = MetricRegistry()
        reg.counter("writes").inc(4.0)
        reg.sample(500_000.0)
        reg.counter("late").inc(1.0)
        reg.sample(1_000_000.0)  # "writes" column now has a None hole
        text = chrome_trace_json(tracer, reg)
        assert text == json.dumps(json.loads(text), separators=(",", ":"))
        assert chrome_trace(tracer, reg) == json.loads(text)


# --------------------------------------------------------------------------
# Streaming bundle export
# --------------------------------------------------------------------------

def full_ring_telemetry():
    """Telemetry whose 65536-record ring is full and spans many export
    chunks, with every pairing case the Chrome export handles: an issue
    completed tens of thousands of records later, a closer whose opener
    was evicted, and an issue still open at the end."""
    telemetry = Telemetry(num_banks=16, clock=lambda: 0.0)
    tracer = telemetry.tracer
    records = [
        (0.0, EV_ISSUE, 0, 5, 0, 3.0, "write"),   # evicted from the ring
        (1.0, EV_COMPLETE, 0, 5, 0, 3.0, ""),     # so this closer is orphaned
        (2.0, EV_ISSUE, 1, 6, 1, 0.0, "read"),    # completed ~40k records on
    ]
    req_id = 2
    while len(records) < tracer.capacity:
        t_ns = 12.5 * len(records)
        bank = req_id % 16
        records.append((t_ns, EV_ENQUEUE, bank, req_id, req_id, 0.0, "write"))
        records.append((t_ns + 1.0, EV_ISSUE, bank, req_id, req_id, 3.0,
                        "write"))
        closer = EV_CANCEL if req_id % 7 == 0 else EV_COMPLETE
        records.append((t_ns + 900.25, closer, bank, req_id, req_id, 3.0, ""))
        if req_id % 1000 == 0:
            records.append((t_ns + 901.0, EV_QUOTA_TRIP, bank, -1, -1, 0.0,
                            'exceed="1.2"\n'))
            telemetry.metrics.counter("writes").inc(float(req_id))
            telemetry.sample_epoch(t_ns)
        if req_id == 13_000:
            records.append((t_ns + 902.0, EV_COMPLETE, 1, 6, 1, 0.0, ""))
        req_id += 1
    del records[tracer.capacity:]
    records.append((12.5 * len(records), EV_ISSUE, 3, 9, req_id, 0.0,
                    "read"))                      # still open at the end
    for record in records:
        tracer.record(*record)
    assert len(tracer) == tracer.capacity and tracer.dropped == 1
    return telemetry


class TestStreamingExport:
    def test_export_memory_is_bounded_and_bytes_match(self, tmp_path):
        """Writing a full ring holds a few chunks, not whole files, and
        streams exactly the bytes of the string exports."""
        telemetry = full_ring_telemetry()
        tracemalloc.start()
        try:
            written = telemetry.write(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        total = sum(path.stat().st_size for path in written)
        assert peak < total / 4, (peak, total)

        jsonl = (tmp_path / "trace.jsonl").read_text()
        chrome = (tmp_path / "trace.chrome.json").read_text()
        assert jsonl == telemetry.tracer.to_jsonl()
        assert chrome == chrome_trace_json(telemetry.tracer,
                                           telemetry.metrics)
        assert len(jsonl.splitlines()) == telemetry.tracer.capacity
        events = json.loads(chrome)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["args"]["req_id"] == 1 and e["name"] == "read"
                   for e in slices)                     # cross-chunk pair
        assert any(e["args"]["req_id"] == 0 and e["name"] == EV_COMPLETE
                   for e in instants)                   # orphan closer
        assert instants[-1]["name"] == "issue read"     # open at the end
        assert any(e["ph"] == "C" for e in events)

    def test_empty_ring_streams_the_string_exports(self, tmp_path):
        telemetry = Telemetry(num_banks=2, clock=lambda: 0.0)
        telemetry.write(tmp_path)
        assert (tmp_path / "trace.jsonl").read_text() == ""
        assert (tmp_path / "trace.chrome.json").read_text() == \
            chrome_trace_json(telemetry.tracer, telemetry.metrics)

    def test_failed_export_keeps_the_existing_bundle(self, tmp_path,
                                                     monkeypatch):
        """A chunk source that raises partway leaves the complete bundle
        already on disk byte-identical, with no temp file behind."""
        telemetry = full_ring_telemetry()
        telemetry.write(tmp_path)
        before = {path.name: path.read_bytes()
                  for path in tmp_path.iterdir()}
        assert MANIFEST_NAME in before

        jsonl_chunks = EventTracer.jsonl_chunks

        def failing_chunks(tracer):
            for index, chunk in enumerate(jsonl_chunks(tracer)):
                if index == 2:
                    raise OSError("disk full")
                yield chunk

        monkeypatch.setattr(EventTracer, "jsonl_chunks", failing_chunks)
        with pytest.raises(OSError, match="disk full"):
            telemetry.write(tmp_path)
        assert {path.name: path.read_bytes()
                for path in tmp_path.iterdir()} == before


# --------------------------------------------------------------------------
# Wear heatmap
# --------------------------------------------------------------------------

class TestHeatmap:
    def test_snapshots_and_deltas(self):
        heatmap = WearHeatmap(num_banks=2)
        wear = [0.0, 0.0]
        heatmap.set_probe(lambda: wear)
        wear[:] = [1.0, 2.0]
        heatmap.snapshot(500.0)
        wear[:] = [1.5, 4.0]
        heatmap.snapshot(1000.0)
        dump = heatmap.to_dict()
        assert heatmap.num_epochs == 2
        assert dump["cumulative"] == [[1.0, 2.0], [1.5, 4.0]]
        assert dump["deltas"] == [[1.0, 2.0], [0.5, 2.0]]
        assert dump["epoch_times_ns"] == [500.0, 1000.0]

    def test_snapshot_without_probe_is_noop(self):
        heatmap = WearHeatmap(num_banks=2)
        heatmap.snapshot(1.0)
        assert heatmap.num_epochs == 0

    def test_probe_row_length_is_validated(self):
        heatmap = WearHeatmap(num_banks=4)
        heatmap.set_probe(lambda: [1.0, 2.0])
        with pytest.raises(ValueError, match="2 values for 4 banks"):
            heatmap.snapshot(1.0)


# --------------------------------------------------------------------------
# Null telemetry
# --------------------------------------------------------------------------

class TestNullTelemetry:
    def test_enabled_flags(self):
        assert Telemetry(1, lambda: 0.0).enabled is True
        assert NULL_TELEMETRY.enabled is False
        assert NullTelemetry.enabled is False

    def test_unguarded_use_raises_loudly(self):
        with pytest.raises(RuntimeError, match="missing its"):
            NULL_TELEMETRY.metrics
        with pytest.raises(RuntimeError, match="sample_epoch"):
            NULL_TELEMETRY.sample_epoch()

    def test_null_is_copyable(self):
        # Dunder probes must keep the AttributeError contract or
        # copy/pickle protocols break on components holding the null.
        assert copy.deepcopy(NULL_TELEMETRY).enabled is False


# --------------------------------------------------------------------------
# Whole-simulator integration
# --------------------------------------------------------------------------

class TestBitIdentity:
    def test_traced_run_matches_untraced(self, tmp_path):
        config = tiny_config(policy="BE-Mellow+SC")
        plain = run_simulation(config)
        traced = run_simulation(replace(
            config, telemetry=True, telemetry_dir=str(tmp_path / "bundle")))
        assert traced == plain

    def test_tiny_ring_does_not_perturb_results(self, tmp_path):
        config = tiny_config(policy="Slow")
        plain = run_simulation(config)
        traced = run_simulation(replace(
            config, telemetry=True, telemetry_dir=str(tmp_path / "b"),
            telemetry_trace_capacity=64))
        assert traced == plain
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["trace"]["retained"] == 64
        assert manifest["trace"]["dropped"] > 0

    def test_telemetry_fields_do_not_change_cache_key(self, tmp_path):
        config = tiny_config()
        traced = replace(config, telemetry=True,
                         telemetry_dir=str(tmp_path),
                         telemetry_trace_capacity=128)
        assert traced.cache_key() == config.cache_key()
        assert traced.cache_digest() == config.cache_digest()


class TestBundleOnDisk:
    def test_run_traced_writes_complete_bundle(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config(policy="BE-Mellow+SC+WQ")
        result, bundle = runner.run_traced(config)
        assert bundle_is_complete(bundle)
        for name in BUNDLE_FILES:
            assert (bundle / name).is_file(), name
        assert result == run_simulation(config)

    def test_heatmap_covers_every_sampled_epoch(self, tmp_path):
        _, bundle = Runner(cache_dir=tmp_path).run_traced(
            tiny_config(policy="BE-Mellow+SC+WQ"))
        metrics = json.loads((bundle / "metrics.json").read_text())
        heatmap = json.loads((bundle / "heatmap.json").read_text())
        num_epochs = len(metrics["sample_times_ns"])
        assert num_epochs >= 1
        assert heatmap["epoch_times_ns"] == metrics["sample_times_ns"]
        assert len(heatmap["cumulative"]) == num_epochs
        for row in heatmap["cumulative"]:
            assert len(row) == heatmap["num_banks"]

    def test_trace_events_are_typed_and_time_ordered(self, tmp_path):
        _, bundle = Runner(cache_dir=tmp_path).run_traced(tiny_config())
        events = [json.loads(line) for line in
                  (bundle / "trace.jsonl").read_text().splitlines()]
        assert events
        assert all(ev["kind"] in EVENT_KINDS for ev in events)
        times = [ev["t_ns"] for ev in events]
        assert times == sorted(times)

    def test_chrome_export_is_valid_json(self, tmp_path):
        _, bundle = Runner(cache_dir=tmp_path).run_traced(tiny_config())
        doc = json.loads((bundle / "trace.chrome.json").read_text())
        assert doc["displayTimeUnit"] == "ns"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases          # paired issue/complete slices
        assert "M" in phases          # process/thread names
        assert phases <= {"M", "i", "X", "C"}

    def test_incomplete_bundle_triggers_resimulation(self, tmp_path):
        config = tiny_config()
        first, bundle = Runner(cache_dir=tmp_path).run_traced(config)
        (bundle / "manifest.json").unlink()
        assert not bundle_is_complete(bundle)
        second, bundle_again = Runner(cache_dir=tmp_path).run_traced(config)
        assert bundle_again == bundle
        assert bundle_is_complete(bundle)
        assert second == first

    def test_cache_stats_and_clear_cover_bundles(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        runner.run_traced(tiny_config())
        assert cache_stats(tmp_path)["telemetry_bundles"] == 1
        removed = cache_clear(tmp_path)
        assert removed == 2           # one entry + one bundle
        assert cache_stats(tmp_path)["telemetry_bundles"] == 0


class TestSweepTelemetry:
    def grid(self):
        return [tiny_config(workload=w, policy=p, telemetry=True)
                for w in ("GemsFDTD", "lbm") for p in ("Norm", "Slow")]

    def test_serial_and_parallel_sweeps_emit_identical_bundles(
            self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = Runner(cache_dir=serial_dir).sweep(self.grid(), jobs=1)
        parallel = Runner(cache_dir=parallel_dir).sweep(self.grid(), jobs=4)
        assert serial == parallel
        serial_bundles = sorted(serial_dir.glob("*.telemetry"))
        parallel_bundles = sorted(parallel_dir.glob("*.telemetry"))
        assert len(serial_bundles) == len(self.grid())
        assert [b.name for b in serial_bundles] == \
               [b.name for b in parallel_bundles]
        for left, right in zip(serial_bundles, parallel_bundles):
            for name in BUNDLE_FILES:
                assert (left / name).read_bytes() == \
                       (right / name).read_bytes(), f"{left.name}/{name}"

    def test_sweep_reuses_complete_bundles(self, tmp_path):
        grid = self.grid()
        Runner(cache_dir=tmp_path).sweep(grid, jobs=1)
        mtimes = {p: p.stat().st_mtime_ns
                  for p in tmp_path.glob("*.telemetry/manifest.json")}
        assert len(mtimes) == len(grid)
        Runner(cache_dir=tmp_path).sweep(grid, jobs=1)
        assert {p: p.stat().st_mtime_ns
                for p in tmp_path.glob("*.telemetry/manifest.json")} == mtimes
