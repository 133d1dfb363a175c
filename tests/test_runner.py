"""Tests for the sweep runner and its persistent cache."""

import json

import pytest

from repro.experiments.runner import Runner, selected_workloads
from repro.sim.config import SimConfig
from repro.sim.system import run_simulation
from repro.store import result_from_dict, result_to_dict

TINY = dict(warmup_accesses=2000, measure_accesses=3000,
            llc_size_bytes=128 * 1024)


def tiny_config(**kwargs):
    merged = dict(TINY)
    merged.update(kwargs)
    return SimConfig(workload="GemsFDTD", **merged)


class TestSerialization:
    def test_roundtrip_preserves_everything(self):
        result = run_simulation(tiny_config(policy="BE-Mellow+SC"))
        data = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(data)
        assert restored.ipc == result.ipc
        assert restored.lifetime_years == result.lifetime_years
        assert restored.writes_issued_slow == result.writes_issued_slow
        assert len(restored.wear_records) == len(result.wear_records)
        assert restored.lifetime_for_expo(1.5) == pytest.approx(
            result.lifetime_for_expo(1.5)
        )


class TestRunnerCache:
    def test_memo_hit(self, tmp_path):
        # The runner keeps no memo: a repeat run is a store hit.
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config()
        a = runner.run(config)
        b = runner.run(config)
        assert result_to_dict(a) == result_to_dict(b)
        assert runner.simulated == 1
        assert runner.cache_hits == 1

    def test_disk_cache_across_runners(self, tmp_path):
        config = tiny_config()
        first = Runner(cache_dir=tmp_path)
        a = first.run(config)
        second = Runner(cache_dir=tmp_path)
        b = second.run(config)
        assert second.simulated == 0
        assert b.ipc == a.ipc

    def test_different_configs_different_entries(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        runner.run(tiny_config(policy="Norm"))
        runner.run(tiny_config(policy="Slow"))
        assert runner.simulated == 2

    def test_corrupt_cache_entry_resimulated(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        config = tiny_config()
        runner.run(config)
        path = runner.store.entry_path(config.cache_digest())
        path.write_text("{not json")
        fresh = Runner(cache_dir=tmp_path)
        result = fresh.run(config)
        assert fresh.simulated == 1
        assert result.ipc > 0

    def test_no_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        runner = Runner(cache_dir=tmp_path)
        runner.run(tiny_config())
        assert not list(tmp_path.glob("*.json"))


class TestEnvSelection:
    def test_default_workloads(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
        assert len(selected_workloads()) == 11

    def test_subset(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "lbm, stream")
        assert selected_workloads() == ["lbm", "stream"]

    def test_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "nosuch")
        with pytest.raises(ValueError):
            selected_workloads()
