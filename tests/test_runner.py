"""Tests for the sweep runner and its persistent cache."""

import concurrent.futures
import json
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import repro.checkpoint
import repro.checkpoint.snapshot
from repro.experiments.faults import (sliced_survival_configs,
                                      survival_configs, survival_records)
from repro.experiments.runner import Runner, selected_workloads
from repro.sim.config import SimConfig
from repro.sim.system import run_simulation
from repro.store import MemoryStore, result_from_dict, result_to_dict

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


class TestSweepRunsStraightThrough:
    """A sweep runs every miss whole: the checkpoint knobs are single-run
    features, so a config's ``checkpoint_every`` and ``checkpoint_dir``
    change neither what a sweep returns nor what it writes."""

    POLICIES = ("Norm", "Slow+SC")
    SEEDS = 3
    SCALE = 0.01

    @pytest.fixture(autouse=True)
    def no_snapshots(self, monkeypatch):
        """Any snapshot save fails the sweep (pool workers fork with
        this patch in place)."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("a sweep wrote a snapshot")

        for module in (repro.checkpoint, repro.checkpoint.snapshot):
            monkeypatch.setattr(module, "save_snapshot", refuse)

    def test_survival_records_serial_equal_pool(self):
        records = []
        for jobs in (1, 2):
            runner = Runner(store=MemoryStore())
            results = runner.sweep(
                survival_configs(policies=self.POLICIES, seeds=self.SEEDS,
                                 scale=self.SCALE), jobs=jobs)
            assert runner.simulated == len(self.POLICIES) * self.SEEDS
            records.append(json.dumps(
                survival_records(self.POLICIES, self.SEEDS, results),
                sort_keys=True))
        assert records[0] == records[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checkpoint_fields_ignored(self, jobs, tmp_path, monkeypatch):
        snapshots = tmp_path / "snapshots"
        grid = [replace(config, checkpoint_dir=str(snapshots))
                for config in sliced_survival_configs(
                    policies=self.POLICIES, seeds=self.SEEDS,
                    scale=self.SCALE, slices=3)]
        assert all(config.checkpoint_every for config in grid)
        expected = Runner(store=MemoryStore()).sweep(
            [replace(config, checkpoint_every=None, checkpoint_dir=None)
             for config in grid], jobs=1)

        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        seen = []
        results = Runner(store=MemoryStore()).sweep(
            grid, jobs=jobs,
            progress=lambda _: seen.extend(temp.glob("repro-slices-*")))
        assert ([result_to_dict(r) for r in results]
                == [result_to_dict(r) for r in expected])
        assert not seen and not list(temp.glob("repro-slices-*"))
        assert not snapshots.exists() or not any(snapshots.iterdir())

    def test_sweep_sliced_is_sweep(self, tmp_path):
        grid = sliced_survival_configs(policies=("Slow+SC",), seeds=2,
                                       scale=self.SCALE, slices=3)
        target = tmp_path / "slices"
        sliced = Runner(store=MemoryStore()).sweep_sliced(
            grid, jobs=2, apply_env_scale=False, checkpoint_dir=target)
        swept = Runner(store=MemoryStore()).sweep(
            grid, jobs=2, apply_env_scale=False)
        assert ([result_to_dict(r) for r in sliced]
                == [result_to_dict(r) for r in swept])
        assert not target.exists() or not any(target.iterdir())


class TestWarmUpsBounded:
    """The pool sweep keeps at most ``jobs`` warm-ups outstanding, so the
    parent never holds every group's warm state at once."""

    JOBS = 2

    def test_warm_ups_go_out_as_blobs_arrive(self, monkeypatch):
        grid = [SimConfig(workload=workload, seed=seed, policy=policy, **TINY)
                for workload in ("GemsFDTD", "lbm", "hmmer")
                for seed in (1, 2)
                for policy in ("Norm", "Slow+SC")]
        assert len({config.warm_key() for config in grid}) == 6
        expected = Runner(store=MemoryStore()).sweep(grid, jobs=1)

        submissions = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                # A run submitted with a warm blob shows that its group's
                # warm-up has finished.
                warm = fn.__name__ == "_warm_state" or len(args) > 1
                submissions.append((fn.__name__, args[0].warm_key(), warm))
                return super().submit(fn, *args, **kwargs)

        # The runner looks the pool up in concurrent.futures when it
        # builds one, so the pool is patched there.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        results = Runner(store=MemoryStore()).sweep(grid, jobs=self.JOBS)
        assert ([result_to_dict(r) for r in results]
                == [result_to_dict(r) for r in expected])

        submitted, finished = set(), set()
        for name, key, warm in submissions:
            if name == "_warm_state":
                submitted.add(key)
                assert len(submitted - finished) <= self.JOBS, submissions
            elif warm:
                finished.add(key)
        assert len(submitted) == 6
        assert finished == submitted
