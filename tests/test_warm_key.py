"""Warm-key completeness: ``SimConfig.warm_key()`` names exactly what
functional warm-up reads.

A sweep warms each warm key once and restores that state into every run
sharing it, so a field that changes the warm state but stays outside the
key would hand a run somebody else's cache.  Each field of
:class:`SimConfig` and of :class:`FaultConfig` (nested under
``faults=``) is perturbed as in ``tests/test_cache_key.py``: a field
outside the key must leave the :func:`capture_warm` state after
``_functional_warmup`` equal, and a field inside it must change the key.
"""

import dataclasses
import functools

import pytest

from repro.checkpoint import capture_warm, snapshot_bytes
from repro.faults.config import FaultConfig
from repro.sim.config import SimConfig
from repro.sim.system import System
from tests.test_cache_key import _field_names, _perturbed

#: A small LLC keeps each warm-up cheap; the DRAM write buffer is on so
#: its section of the warm state takes part.
BASE = SimConfig(workload="lbm", llc_size_bytes=64 * 1024,
                 dram_buffer_entries=8)
FAULTY = dataclasses.replace(BASE, faults=FaultConfig())
#: The fields warm_key() is meant to hold.
WARM_FIELDS = ("workload", "seed", "llc_size_bytes", "llc_assoc",
               "functional_warmup_max", "dram_buffer_entries")


def _warm_state(config: SimConfig) -> dict:
    system = System(config)
    system._functional_warmup()
    return capture_warm(system)


@functools.lru_cache(maxsize=None)
def _base_warm() -> dict:
    return _warm_state(BASE)


def _warm_problem(changed: SimConfig, name: str):
    """Why ``changed`` (``BASE`` with ``name`` perturbed) breaks the
    warm-key contract, or None."""
    if changed.warm_key() != BASE.warm_key():
        return None
    if _warm_state(changed) != _base_warm():
        return (f"{name} changes the functional warm-up state but is "
                "not in SimConfig.warm_key()")
    return None


@pytest.mark.parametrize("name", _field_names(SimConfig))
def test_sim_config_field_outside_warm_key_leaves_warm_state(name):
    changed = dataclasses.replace(
        BASE, **{name: _perturbed(name, getattr(BASE, name))})
    problem = _warm_problem(changed, name)
    assert problem is None, problem


@pytest.mark.parametrize("name", _field_names(FaultConfig))
def test_fault_config_field_outside_warm_key_leaves_warm_state(name):
    faults = dataclasses.replace(
        FAULTY.faults,
        **{name: _perturbed(name, getattr(FAULTY.faults, name))})
    changed = dataclasses.replace(FAULTY, faults=faults)
    problem = _warm_problem(changed, f"faults.{name}")
    assert problem is None, problem


@pytest.mark.parametrize("name", WARM_FIELDS)
def test_warm_key_field_moves_the_key(name):
    changed = dataclasses.replace(
        BASE, **{name: _perturbed(name, getattr(BASE, name))})
    assert changed.warm_key() != BASE.warm_key()


def test_warm_key_holds_nothing_else():
    assert BASE.warm_key() == tuple(getattr(BASE, name)
                                    for name in WARM_FIELDS)


def test_start_run_from_a_warm_state_matches_warming_up():
    """A run of another policy started from a shared warm state is in
    exactly the state its own warm-up would have left, events included."""
    config = dataclasses.replace(BASE, policy="BE-Mellow+SC")
    warmed = System(config)
    warmed.start_run()
    forked = System(config)
    forked.start_run(_base_warm())
    assert snapshot_bytes(forked) == snapshot_bytes(warmed)
