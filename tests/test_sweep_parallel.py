"""Parallel sweep engine + hardened cache: equivalence, concurrency, CLI."""

import json
import logging
import multiprocessing
import os

from repro.experiments.runner import (
    CACHE_SCHEMA_VERSION,
    Runner,
    atomic_write_text,
    cache_clear,
    cache_stats,
    cache_verify,
    default_jobs,
    entry_from_json,
    entry_to_json,
    result_to_dict,
)
from repro.sim.config import SimConfig, digest_for_key
from repro.sim.system import run_simulation

TINY = dict(warmup_accesses=2000, measure_accesses=3000,
            llc_size_bytes=128 * 1024)


def tiny_config(workload="GemsFDTD", **kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    return SimConfig(workload=workload, **merged)


def tiny_grid():
    return [
        tiny_config(workload=workload, policy=policy)
        for workload in ("GemsFDTD", "lbm")
        for policy in ("Norm", "Slow")
    ]


def _run_one(cache_dir, config):
    """Child-process worker for the concurrent-writer stress test."""
    result = Runner(cache_dir=cache_dir).run(config)
    return result_to_dict(result)


def _entry_json(config):
    """Child-process worker for the start-method determinism test."""
    return entry_to_json(config, run_simulation(config))


def outputs_by_start_method(monkeypatch, fn, *args):
    """``fn(*args)`` as computed in a spawned and in a forked child.

    A spawned interpreter draws its own str-hash seed (pinned here to a
    value the parent is unlikely to share) while a forked one inherits
    the parent's, so any hash()-derived value differs between the two.
    """
    monkeypatch.setenv("PYTHONHASHSEED", "271828")
    outputs = []
    for method in ("spawn", "fork"):
        context = multiprocessing.get_context(method)
        with context.Pool(1) as pool:
            outputs.append(pool.apply_async(fn, args).get(timeout=120))
    return tuple(outputs)


class TestSerialParallelEquivalence:
    def test_identical_results_and_cache_bytes(self, tmp_path):
        grid = tiny_grid()
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = Runner(cache_dir=serial_dir).sweep(grid, jobs=1)
        parallel = Runner(cache_dir=parallel_dir).sweep(grid, jobs=4)
        assert [result_to_dict(r) for r in serial] == \
               [result_to_dict(r) for r in parallel]
        # The caches the two sweeps leave behind are byte-identical.
        serial_files = {p.name: p.read_bytes()
                        for p in serial_dir.glob("*.json")}
        parallel_files = {p.name: p.read_bytes()
                          for p in parallel_dir.glob("*.json")}
        assert serial_files == parallel_files
        assert len(serial_files) == len(grid)

    def test_results_in_input_order(self, tmp_path):
        grid = tiny_grid()
        results = Runner(cache_dir=tmp_path).sweep(grid, jobs=4)
        for config, result in zip(grid, results):
            assert result.workload == config.workload
            assert result.policy == config.policy_name

    def test_duplicate_configs_simulate_once(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config()
        results = runner.sweep([config, config, config], jobs=2)
        assert runner.simulated == 1
        assert results[0] is results[1] is results[2]


class TestSweepProgress:
    def test_callback_sees_every_run(self, tmp_path):
        grid = tiny_grid()
        events = []
        Runner(cache_dir=tmp_path).sweep(grid, jobs=2,
                                         progress=events.append)
        assert len(events) == len(grid)
        assert sorted(e.completed for e in events) == [1, 2, 3, 4]
        assert all(e.total == len(grid) for e in events)
        assert not any(e.from_cache for e in events)

    def test_cache_hits_flagged(self, tmp_path):
        grid = tiny_grid()
        Runner(cache_dir=tmp_path).sweep(grid, jobs=2)
        events = []
        Runner(cache_dir=tmp_path).sweep(grid, jobs=2,
                                         progress=events.append)
        assert all(e.from_cache for e in events)


class TestConcurrentCache:
    def test_two_processes_same_key_no_corruption(self, tmp_path):
        config = tiny_config()
        with multiprocessing.Pool(2) as pool:
            dicts = pool.starmap(_run_one, [(tmp_path, config)] * 2)
        assert dicts[0] == dicts[1]
        report = cache_verify(tmp_path)
        assert report["ok"] == 1
        assert report["bad"] == []
        # Whatever survived the race is a complete, loadable entry that a
        # fresh runner reads back without simulating.
        fresh = Runner(cache_dir=tmp_path)
        result = fresh.run(config)
        assert fresh.simulated == 0
        assert result_to_dict(result) == dicts[0]

    def test_atomic_write_never_exposes_partial_files(self, tmp_path):
        path = tmp_path / "entry.json"
        payloads = [json.dumps({"payload": str(i) * 4096}) for i in range(20)]
        for payload in payloads:
            atomic_write_text(path, payload)
            assert path.read_text() in payloads
        assert not list(tmp_path.glob("*.tmp"))


class TestStartMethodDeterminism:
    def test_spawn_and_fork_give_identical_entries(self, monkeypatch):
        # Any hash()-derived seeding - the trace-seeding bug this guards
        # against - makes the spawned and forked entries differ.
        from repro.faults.config import FaultConfig
        config = tiny_config(workload="zeusmp", policy="BE-Mellow+SC",
                             faults=FaultConfig(wear_acceleration=1e6))
        entries = outputs_by_start_method(monkeypatch, _entry_json, config)
        assert entries[0] == entries[1]
        assert entries[0] == _entry_json(config)


class TestCacheHardening:
    def test_truncated_entry_warns_and_resimulates(self, tmp_path, caplog):
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config()
        runner.run(config)
        path = runner._path_for(config)
        path.write_text(path.read_text()[:40])    # torn write
        fresh = Runner(cache_dir=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            fresh.run(config)
        assert fresh.simulated == 1
        assert any("re-simulating" in r.message for r in caplog.records)

    def test_schema_drift_warns_and_resimulates(self, tmp_path, caplog):
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config()
        runner.run(config)
        path = runner._path_for(config)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        fresh = Runner(cache_dir=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.runner"):
            fresh.run(config)
        assert fresh.simulated == 1
        assert any("re-simulating" in r.message for r in caplog.records)

    def test_preversioning_entry_resimulates(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config()
        result = runner.run(config)
        path = runner._path_for(config)
        path.write_text(json.dumps(result_to_dict(result)))   # old format
        fresh = Runner(cache_dir=tmp_path)
        fresh.run(config)
        assert fresh.simulated == 1

    def test_entry_roundtrip(self):
        config = tiny_config(policy="Slow")
        result = run_simulation(config)
        restored = entry_from_json(entry_to_json(config, result))
        assert result_to_dict(restored) == result_to_dict(result)

    def test_digest_stable_across_json_roundtrip(self):
        key = tiny_config().cache_key()
        assert digest_for_key(key) == \
               digest_for_key(json.loads(json.dumps(list(key))))


class TestCacheMaintenance:
    def test_stats_verify_clear(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        runner.sweep([tiny_config(policy="Norm"), tiny_config(policy="Slow")],
                     jobs=1)
        stats = cache_stats(tmp_path)
        assert stats["entries"] == 2
        assert stats["valid"] == 2
        assert stats["invalid"] == 0
        (tmp_path / "junk.json").write_text("{broken")
        stats = cache_stats(tmp_path)
        assert stats["invalid"] == 1
        report = cache_verify(tmp_path)
        assert report["ok"] == 2
        assert len(report["bad"]) == 1
        assert cache_clear(tmp_path) == 3
        assert cache_stats(tmp_path)["entries"] == 0

    def test_verify_flags_renamed_entry(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config()
        runner.run(config)
        path = runner._path_for(config)
        path.rename(tmp_path / ("0" * 24 + ".json"))
        report = cache_verify(tmp_path)
        assert report["ok"] == 0
        assert "digest mismatch" in report["bad"][0]["error"]

    def test_missing_dir_is_empty(self, tmp_path):
        missing = tmp_path / "nope"
        assert cache_stats(missing)["entries"] == 0
        assert cache_verify(missing)["bad"] == []
        assert cache_clear(missing) == 0


class TestJobsEnv:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_default_jobs_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == (os.cpu_count() or 1)

    def test_jobs_floor_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1


class TestCacheCli:
    def test_cache_stats_command(self, tmp_path, capsys):
        from repro.cli import main
        Runner(cache_dir=tmp_path).run(tiny_config())
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out

    def test_cache_verify_command_bad_entry(self, tmp_path, capsys):
        from repro.cli import main
        (tmp_path / "bad.json").write_text("{oops")
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1
        assert "BAD" in capsys.readouterr().err

    def test_cache_clear_command(self, tmp_path, capsys):
        from repro.cli import main
        Runner(cache_dir=tmp_path).run(tiny_config())
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*.json"))

    def test_sweep_jobs_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main([
            "sweep", "--workloads", "hmmer", "--policies", "Norm,Slow",
            "--scale", "0.05", "--jobs", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.count("hmmer") >= 2
        assert "[2/2]" in captured.err
