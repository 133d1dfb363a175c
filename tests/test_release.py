"""A finished or paused ``System`` is freed by reference counting.

The core, the controller, the event heap, queued requests and telemetry
probes hold callbacks into one another; ``System.release()`` cuts those
edges.  With the cyclic collector off, dropping the last reference must
free the system and its LLC at once - otherwise every finished run
waits, with its whole cache, for a whole-heap collection.
"""
from __future__ import annotations

import dataclasses
import gc
import weakref
from pathlib import Path
from typing import Iterator

import pytest

from repro.faults import FaultConfig
from repro.sim.config import SimConfig
from repro.sim.system import System

FAULTS_HARSH = FaultConfig(wear_acceleration=5e6, spare_lines_per_bank=2,
                           max_write_retries=1)

CONFIGS = {
    "plain": SimConfig(workload="gups", policy="BE-Mellow+SC",
                       seed=3).scaled(0.02),
    "traced": SimConfig(workload="lbm", policy="BE-Mellow+SC+WQ", seed=3,
                        telemetry=True).scaled(0.02),
    "dram-buffer": SimConfig(workload="lbm", policy="Norm", seed=3,
                             dram_buffer_entries=16,
                             flip_n_write=True).scaled(0.02),
    "uncorrectable": SimConfig(workload="gups", policy="BE-Mellow+SC",
                               seed=3, faults=FAULTS_HARSH).scaled(0.05),
}


@pytest.fixture
def collector_off() -> Iterator[None]:
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _refs(system: System) -> list:
    return [weakref.ref(system), weakref.ref(system.llc)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_finished_system_is_freed_without_the_collector(
        name: str, tmp_path: Path, collector_off: None) -> None:
    config = CONFIGS[name]
    system = System(config)
    result = system.run()
    if name == "uncorrectable":
        assert result.uncorrectable
    if config.telemetry:
        # Release keeps the bundle writable after the run.
        assert system.telemetry.write(tmp_path)
    refs = _refs(system)
    del system
    assert [ref() for ref in refs] == [None, None]


def test_paused_slice_is_freed_after_release(collector_off: None) -> None:
    system = System(dataclasses.replace(CONFIGS["plain"],
                                        checkpoint_every=500))
    system.start_run()
    assert system.continue_run() is None
    system.release()
    refs = _refs(system)
    del system
    assert [ref() for ref in refs] == [None, None]
