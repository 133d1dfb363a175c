"""Sharded survival studies: process-sliced must equal serial exactly.

Satellite tests for the checkpoint layer's consumer: a long-horizon
study cut into seeds x time slices and scattered over a process pool
must merge to byte-identical survival records, and a study killed by
SIGTERM mid-run must resume from its last snapshot to the same result
an uninterrupted run produces.
"""
from __future__ import annotations

import gc
import json
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from repro.analysis.export import run_result_to_dict
from repro.checkpoint import load_snapshot, restore_system, save_snapshot
from repro.checkpoint.snapshot import _encode_snapshot
from repro.experiments.faults import (default_fault_config,
                                      sharded_survival_study,
                                      sliced_survival_configs,
                                      survival_configs, survival_records)
from repro.experiments.runner import Runner, _advance_slice
from repro.sim.config import SimConfig
from repro.sim.system import System
from repro.store import MemoryStore, result_from_dict

POLICIES = ("Norm", "Slow+SC")
SEEDS = 3
SCALE = 0.01


def _memory_runner() -> Runner:
    return Runner(store=MemoryStore())


def _records_json(records) -> str:
    return json.dumps(records, sort_keys=True)


def test_serial_vs_sharded_records_byte_identical() -> None:
    """The merged right-censored records of a process-sharded study are
    byte-for-byte those of a serial sweep over the same grid.  Separate
    in-memory stores rule out cache cross-talk making this trivial."""
    serial = _memory_runner()
    results = serial.sweep(
        survival_configs(policies=POLICIES, seeds=SEEDS, scale=SCALE),
        jobs=1)
    serial_records = survival_records(POLICIES, SEEDS, results)

    sharded = _memory_runner()
    sharded_records = sharded_survival_study(
        runner=sharded, policies=POLICIES, seeds=SEEDS, scale=SCALE,
        slices=3, jobs=2)
    assert _records_json(sharded_records) == _records_json(serial_records)
    assert sharded.simulated == len(POLICIES) * SEEDS


def test_sliced_serial_path_matches_pool_path(tmp_path: Path) -> None:
    """jobs=1 drives the same snapshot chain without a pool; records
    must not depend on which execution path ran the slices."""
    pooled = sharded_survival_study(
        runner=_memory_runner(), policies=POLICIES, seeds=SEEDS,
        scale=SCALE, slices=3, jobs=2)
    serial = sharded_survival_study(
        runner=_memory_runner(), policies=POLICIES, seeds=SEEDS,
        scale=SCALE, slices=3, jobs=1,
        checkpoint_dir=tmp_path / "slices")
    assert _records_json(serial) == _records_json(pooled)


def test_sliced_configs_share_cache_entries() -> None:
    """checkpoint_every stays outside the cache key, so a sliced study
    re-reads a serial study's entries instead of re-simulating."""
    runner = _memory_runner()
    runner.sweep(
        survival_configs(policies=POLICIES, seeds=SEEDS, scale=SCALE),
        jobs=1)
    simulated_before = runner.simulated
    sharded_survival_study(runner=runner, policies=POLICIES, seeds=SEEDS,
                           scale=SCALE, slices=3, jobs=2)
    assert runner.simulated == simulated_before


def test_advance_slice_resimulates_on_corrupt_snapshot(
        tmp_path: Path, caplog: pytest.LogCaptureFixture) -> None:
    """The Runner-path fallback: an unusable snapshot warns and
    re-simulates from scratch, bit-identical to the intended run."""
    config = sliced_survival_configs(policies=("Norm",), seeds=1,
                                     scale=SCALE, slices=3)[0]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a snapshot")
    with caplog.at_level("WARNING", logger="repro.experiments.runner"):
        status, payload = _advance_slice(config, str(bad),
                                         str(tmp_path / "next.ckpt"))
    assert status == "done"
    assert any("re-simulating" in record.message
               for record in caplog.records)
    resimulated = run_result_to_dict(result_from_dict(payload))
    straight = run_result_to_dict(System(config).run())
    assert (json.dumps(resimulated, sort_keys=True)
            == json.dumps(straight, sort_keys=True))


def test_advance_slice_resimulates_on_malformed_state(
        tmp_path: Path, caplog: pytest.LogCaptureFixture) -> None:
    """A digest-valid snapshot whose state lacks a section takes the same
    warn-and-re-simulate path as a corrupt file, to identical bytes."""
    config = sliced_survival_configs(policies=("Slow+SC",), seeds=1,
                                     scale=SCALE, slices=3)[0]
    system = System(config)
    system.start_run()
    assert system.continue_run() is None
    snapshot_config, state = load_snapshot(
        save_snapshot(system, tmp_path / "good.ckpt"))
    del state["llc"]
    bad = tmp_path / "no-llc.ckpt"
    bad.write_bytes(_encode_snapshot(snapshot_config, state))
    with caplog.at_level("WARNING", logger="repro.experiments.runner"):
        status, payload = _advance_slice(config, str(bad),
                                         str(tmp_path / "next.ckpt"))
    assert status == "done"
    assert any("re-simulating" in record.message and "'llc'" in record.message
               for record in caplog.records)
    resimulated = run_result_to_dict(result_from_dict(payload))
    straight = run_result_to_dict(System(config).run())
    assert (json.dumps(resimulated, sort_keys=True)
            == json.dumps(straight, sort_keys=True))


def test_release_frees_a_slice_system_without_the_collector() -> None:
    """Snapshot capture and restore pause the cyclic collector, so the
    slice worker must not leave dead systems for it: ``release`` lets
    reference counting alone reclaim a finished slice's system."""
    config = sliced_survival_configs(policies=("Slow+SC",), seeds=1,
                                     scale=SCALE, slices=3)[0]
    system = System(config)
    system.start_run()
    assert system.continue_run() is None
    alive = weakref.ref(system)
    gc.disable()
    try:
        system.release()
        del system
        assert alive() is None
    finally:
        gc.enable()


_CHILD_SCRIPT = """
import sys
from dataclasses import replace
from repro.experiments.faults import default_fault_config
from repro.sim.config import SimConfig
from repro.sim.system import System

config = SimConfig(workload="zeusmp", policy="Slow+SC", seed=2,
                   faults=default_fault_config(),
                   checkpoint_every=400,
                   checkpoint_dir=sys.argv[1]).scaled(0.01)
System(config).run()
"""


def test_sigterm_resume_equals_uninterrupted(tmp_path: Path) -> None:
    """Kill a checkpointing run with SIGTERM mid-flight, resume from the
    newest snapshot, and require the exact uninterrupted result.
    Atomic snapshot writes guarantee the newest file is complete even
    though the process died without warning."""
    snap_dir = tmp_path / "snaps"
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(snap_dir)],
        env={**__import__("os").environ, "PYTHONPATH": "src"},
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    try:
        deadline = time.monotonic() + 120.0   # simlint: ignore[SIM003] -- real child wait
        while time.monotonic() < deadline:   # simlint: ignore[SIM003] -- real child wait
            if snap_dir.is_dir() and any(snap_dir.glob("*.ckpt")):
                break
            if child.poll() is not None:
                break
            time.sleep(0.02)
        else:
            pytest.fail("child never wrote a snapshot")
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)

    snapshots = sorted(snap_dir.glob("*.ckpt"))
    assert snapshots, "no snapshot survived the SIGTERM"
    resumed = restore_system(snapshots[-1]).finish_run()

    straight_config = SimConfig(workload="zeusmp", policy="Slow+SC", seed=2,
                                faults=default_fault_config()).scaled(0.01)
    straight = System(straight_config).run()
    assert (json.dumps(run_result_to_dict(resumed), sort_keys=True)
            == json.dumps(run_result_to_dict(straight), sort_keys=True))
