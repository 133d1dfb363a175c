"""Storage backends: conformance, compat, resolution, equivalence.

One shared conformance class runs the identical contract against a
cache directory and a MemoryStore; the rest pins what actually matters operationally - pre-store
cache directories keep reading, digests never move, and a memory-backed
parallel sweep matches a serial file-backed one.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.endurance.wear import BankWearRecord
from repro.experiments.runner import Runner
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.sim.system import run_simulation
from repro.store import (
    FileStore,
    MemoryStore,
    atomic_write_chunks,
    atomic_write_text,
    cache_stats,
    entry_from_json,
    entry_to_json,
    open_store,
    resolve_store,
    result_to_dict,
)
from repro.telemetry import MANIFEST_NAME, bundle_is_complete

SRC = Path(__file__).resolve().parent.parent / "src"

BACKENDS = ["file", "memory"]

TINY = dict(warmup_accesses=2000, measure_accesses=3000,
            llc_size_bytes=128 * 1024)

DIGEST = "ab" * 12
OTHER = "cd" * 12


def tiny_config(workload="GemsFDTD", **kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    return SimConfig(workload=workload, **merged)


def make_store(kind, tmp_path):
    if kind == "file":
        return FileStore(tmp_path / "cache")
    if kind == "memory":
        return MemoryStore()
    raise AssertionError(kind)


def make_bundle(marker=b"x"):
    return {
        "metrics.json": b'{"m": 1}' + marker,
        "trace.jsonl": b'{"e": 1}\n',
        MANIFEST_NAME: b'{"files": ["metrics.json", "trace.jsonl"]}',
    }


def write_bundle(store, digest, files):
    """Lay a bundle's files into the store's bundle directory."""
    bundle = store.bundle_dir(digest)
    bundle.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (bundle / name).write_bytes(data)
    return bundle


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    return make_store(request.param, tmp_path)


class TestConformance:
    """The identical contract, enforced against both backends."""

    def test_get_missing_is_none_and_counts_a_miss(self, store):
        assert store.get(DIGEST) is None
        # Hits and misses are counted by the runner reading the store.
        runner = Runner(store=store)
        runner.run(tiny_config())
        assert (runner.simulated, runner.cache_hits) == (1, 0)

    def test_put_get_roundtrip(self, store):
        store.put(DIGEST, b"payload")
        assert store.get(DIGEST) == b"payload"
        assert store.get(OTHER) is None

    def test_overwrite_last_write_wins(self, store):
        store.put(DIGEST, b"first")
        store.put(DIGEST, b"second")
        assert store.get(DIGEST) == b"second"

    def test_delete(self, store):
        store.put(DIGEST, b"data")
        assert store.delete(DIGEST) is True
        assert store.delete(DIGEST) is False
        assert store.get(DIGEST) is None

    def test_scan_reports_entries_and_bundles(self, store):
        store.put(DIGEST, b"data")
        write_bundle(store, OTHER, make_bundle())
        found = {(e.kind, e.digest): e for e in store.scan()}
        assert ("entry", DIGEST) in found
        assert ("bundle", OTHER) in found
        assert found[("entry", DIGEST)].size == len(b"data")

    def test_scan_order_is_deterministic(self, store):
        store.put(OTHER, b"b")
        store.put(DIGEST, b"a")
        digests = [e.digest for e in store.scan()]
        assert digests == sorted(digests)

    def test_stat_summary(self, store):
        store.put(DIGEST, b"12345")
        write_bundle(store, OTHER, make_bundle())
        stats = cache_stats(store)
        assert stats["entries"] == 1
        assert stats["telemetry_bundles"] == 1
        assert stats["total_bytes"] == 5
        assert stats["backend"] == store.kind

    def test_bundle_roundtrip(self, store):
        files = make_bundle()
        bundle = store.bundle_dir(DIGEST)
        assert bundle.parent == store.root
        assert not bundle_is_complete(bundle)
        write_bundle(store, DIGEST, files)
        assert bundle_is_complete(bundle)
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == files
        (found,) = store.scan()
        assert (found.kind, found.digest) == ("bundle", DIGEST)
        assert found.size == sum(len(data) for data in files.values())

    def test_bundle_requires_manifest(self, store):
        # A bundle directory without its manifest is not a bundle: the
        # cached result alone does not satisfy a traced config.
        config = tiny_config()
        _, bundle = Runner(store=store).run_traced(config)
        (bundle / MANIFEST_NAME).unlink()
        assert not bundle_is_complete(bundle)
        fresh = Runner(store=store)
        _, again = fresh.run_traced(config)
        assert (fresh.simulated, again) == (1, bundle)
        assert bundle_is_complete(bundle)

    def test_clear_removes_everything(self, store):
        store.put(DIGEST, b"data")
        write_bundle(store, OTHER, make_bundle())
        assert store.clear() == 2
        assert store.scan() == []
        assert not store.bundle_dir(OTHER).exists()

    @pytest.mark.parametrize("store", ["file"], indirect=True)
    def test_description_roundtrips_through_parser(self, store):
        # ``cache stats``/``verify`` report the description; handing it
        # back as the cache target must reopen the same store.
        store.put(DIGEST, b"data")
        rebuilt = open_store(store.description)
        assert rebuilt.kind == store.kind
        assert rebuilt.description == store.description
        assert rebuilt.get(DIGEST) == b"data"

    def test_location_mentions_the_digest(self, store):
        assert DIGEST in store.location(DIGEST)


class TestFileStoreCompat:
    """Pre-store ``.repro_cache`` directories must read back unchanged."""

    def test_reads_entries_written_by_the_old_layout(self, tmp_path):
        config = tiny_config()
        result = run_simulation(config)
        # The historic write path: <digest>.json via atomic rename.
        atomic_write_text(tmp_path / f"{config.cache_digest()}.json",
                          entry_to_json(config, result))
        fresh = Runner(cache_dir=tmp_path)
        again = fresh.run(config)
        assert fresh.simulated == 0
        assert result_to_dict(again) == result_to_dict(result)

    def test_runner_writes_the_same_layout(self, tmp_path):
        config = tiny_config()
        runner = Runner(cache_dir=tmp_path)
        result = runner.run(config)
        path = tmp_path / f"{config.cache_digest()}.json"
        assert path.is_file()
        assert entry_from_json(path.read_text()).ipc == result.ipc

    def test_entry_and_bundle_paths(self, tmp_path):
        s = FileStore(tmp_path)
        assert s.entry_path(DIGEST) == tmp_path / f"{DIGEST}.json"
        assert s.bundle_dir(DIGEST).parent == tmp_path
        assert s.bundle_dir(DIGEST) == tmp_path / f"{DIGEST}.telemetry"

    def test_memory_bundle_root_dies_with_the_store(self):
        store = MemoryStore()
        runner = Runner(store=store)
        _, bundle = runner.run_traced(tiny_config())
        root = store.root
        assert bundle == store.bundle_dir(tiny_config().cache_digest())
        assert bundle.parent == root and bundle_is_complete(bundle)
        del runner, store
        gc.collect()
        assert not root.exists()


PINNED_DIGESTS = {
    # Re-pinned when the key gained MODEL_VERSION; a store-layer change
    # moving any of these would orphan every existing cache in every
    # backend.
    ("lbm", "Norm", 1, 16, 4): "91af9deb1bc98a2360aebfba",
    ("hmmer", "BE-Mellow+SC+WQ", 7, 16, 4): "1b2646726ef3b8f402ec2084",
    ("gups", "Slow+SC", 1, 8, 2): "060feb5a3436cee3da4218ab",
}


class TestDigestStability:
    @pytest.mark.parametrize("key", sorted(PINNED_DIGESTS))
    def test_pinned_digests_unmoved(self, key):
        workload, policy, seed, banks, ranks = key
        config = SimConfig(workload=workload, policy=policy, seed=seed,
                           num_banks=banks, num_ranks=ranks)
        assert config.cache_digest() == PINNED_DIGESTS[key]

    def test_scaled_digest_unmoved(self):
        small = SimConfig("hmmer", policy="Norm").scaled(0.05)
        assert small.cache_digest() == "6b87838e1578c2ca43e74a3c"

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_backend_choice_never_enters_the_digest(self, kind, tmp_path):
        config = tiny_config()
        runner = Runner(store=make_store(kind, tmp_path))
        runner.run(config)
        assert runner.store.get(config.cache_digest()) is not None


class TestResolvePrecedence:
    def test_no_cache_env_wins_over_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        s = resolve_store(cache_dir=tmp_path)
        assert isinstance(s, MemoryStore)

    def test_cache_dir_beats_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        s = resolve_store(cache_dir=tmp_path / "dir")
        assert isinstance(s, FileStore)
        assert s.root == tmp_path / "dir"

    def test_env_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dir"))
        s = resolve_store()
        assert isinstance(s, FileStore)
        assert s.root == tmp_path / "dir"

    def test_default_is_repro_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        s = resolve_store()
        assert isinstance(s, FileStore)
        assert str(s.root) == ".repro_cache"

    def test_maintenance_ignores_no_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        s = resolve_store(cache_dir=tmp_path, respect_no_cache=False)
        assert isinstance(s, FileStore)

    def test_runner_under_no_cache_uses_memory_store(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner = Runner(cache_dir=tmp_path)
        assert isinstance(runner.store, MemoryStore)
        runner.run(tiny_config())
        assert not list(tmp_path.glob("*.json"))
        # The no-cache path is the same code path: a repeat run hits.
        runner.run(tiny_config())
        assert runner.simulated == 1
        assert runner.cache_hits == 1


class TestCrossBackendEquivalence:
    def test_all_backends_yield_identical_results_and_bytes(self, tmp_path):
        config = tiny_config(policy="BE-Mellow+SC")
        digest = config.cache_digest()
        dicts, blobs = [], []
        for kind in BACKENDS:
            s = make_store(kind, tmp_path / kind)
            runner = Runner(store=s)
            dicts.append(result_to_dict(runner.run(config)))
            blobs.append(s.get(digest))
        assert all(d == dicts[0] for d in dicts)
        assert all(b == blobs[0] for b in blobs)

    def test_hit_counting_is_backend_independent(self, tmp_path):
        grid = [tiny_config(policy=p) for p in ("Norm", "Slow")]
        for kind in BACKENDS:
            s = make_store(kind, tmp_path / kind)
            first = Runner(store=s)
            first.sweep(grid, jobs=1)
            assert (first.simulated, first.cache_hits) == (2, 0), kind
            second = Runner(store=s)
            second.sweep(grid, jobs=1)
            assert (second.simulated, second.cache_hits) == (0, 2), kind

    def test_parallel_memory_sweep_matches_serial_file_sweep(self, tmp_path):
        grid = [
            tiny_config(workload=workload, policy=policy)
            for workload in ("GemsFDTD", "lbm")
            for policy in ("Norm", "Slow")
        ]
        serial = Runner(cache_dir=tmp_path / "file").sweep(grid, jobs=1)
        parallel = Runner(store=MemoryStore()).sweep(grid, jobs=2)
        assert ([result_to_dict(r) for r in parallel]
                == [result_to_dict(r) for r in serial])


class TestRunnerTelemetryAcrossBackends:
    def test_memory_bundle_regenerates_after_wipe(self):
        config = tiny_config()
        store = MemoryStore()
        result, bundle_dir = Runner(store=store).run_traced(config)
        assert bundle_dir == store.bundle_dir(config.cache_digest())
        assert bundle_is_complete(bundle_dir)
        metrics = (bundle_dir / "metrics.json").read_bytes()

        # The entry survives a wiped bundle directory, but only the
        # simulator can write the bundle back: the run re-simulates.
        for path in bundle_dir.iterdir():
            path.unlink()
        fresh = Runner(store=store)
        again, regenerated = fresh.run_traced(config)
        assert fresh.simulated == 1
        assert regenerated == bundle_dir
        assert result_to_dict(again) == result_to_dict(result)
        assert (regenerated / "metrics.json").read_bytes() == metrics

    def test_no_cache_trace_leaves_no_temp_directory(self, tmp_path):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        env = dict(os.environ, REPRO_NO_CACHE="1", TMPDIR=str(tmp))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--workload", "lbm",
             "--scale", "0.05", "--output", "t.json"],
            cwd=tmp_path, env=env, check=True, capture_output=True)
        assert json.loads((tmp_path / "t.json").read_text())
        assert not list(tmp.glob("repro-*"))

    def test_corrupt_store_entry_resimulates(self):
        config = tiny_config()
        store = MemoryStore()
        Runner(store=store).run(config)
        store.put(config.cache_digest(), b"{not json")
        fresh = Runner(store=store)
        fresh.run(config)
        assert fresh.simulated == 1


# -- codec round-trip property ------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=2**48)


def _wear(normal, slow):
    record = BankWearRecord(normal_writes=normal)
    record.slow_writes_by_factor = slow
    return record


wear_records = st.lists(
    st.builds(
        _wear,
        counts,
        st.dictionaries(
            st.floats(min_value=1.0, max_value=64.0, allow_nan=False),
            counts, max_size=3),
    ),
    max_size=3,
)

_FIELD_STRATEGIES = {
    "str": st.text(max_size=12),
    "int": counts,
    "float": finite,
    "bool": st.booleans(),
    "List[float]": st.lists(finite, max_size=6),
    "List[BankWearRecord]": wear_records,
}


def _result_strategy():
    from dataclasses import fields
    return st.fixed_dictionaries({
        f.name: _FIELD_STRATEGIES[f.type] for f in fields(RunResult)
    }).map(lambda kw: RunResult(**kw))


class TestCodecProperty:
    @given(result=_result_strategy())
    @settings(max_examples=50, deadline=None)
    def test_entry_roundtrip_is_exact(self, result):
        config = tiny_config()
        restored = entry_from_json(entry_to_json(config, result))
        assert result_to_dict(restored) == result_to_dict(result)

    @given(result=_result_strategy())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_survives_a_store_hop(self, result):
        config = tiny_config()
        store = MemoryStore()
        store.put(config.cache_digest(),
                  entry_to_json(config, result).encode("utf-8"))
        data = store.get(config.cache_digest())
        restored = entry_from_json(data.decode("utf-8"))
        assert json.loads(json.dumps(result_to_dict(restored))) \
            == result_to_dict(result)


class TestAtomicWriteChunks:
    def test_chunks_are_concatenated(self, tmp_path):
        path = tmp_path / "sub" / "file.bin"
        atomic_write_chunks(path, iter([b"ab", b"", b"cd"]))
        assert path.read_bytes() == b"abcd"

    @pytest.mark.parametrize("existing", [None, b"complete payload"])
    def test_failing_source_leaves_no_partial_file(self, tmp_path, existing):
        """A chunk source that raises partway leaves the target as it
        was (absent, or byte-identical) and no temp file behind."""
        path = tmp_path / "trace.jsonl"
        if existing is not None:
            path.write_bytes(existing)

        def chunks():
            yield b"first chunk\n"
            yield b"second chunk\n"
            raise OSError("source failed")

        with pytest.raises(OSError, match="source failed"):
            atomic_write_chunks(path, chunks())
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing
        assert list(tmp_path.iterdir()) == ([path] if existing else [])
