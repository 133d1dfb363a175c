"""Cache-key completeness: every config field either moves the digest or
is listed, with a reason, in its module's ``CACHE_KEY_EXCLUDED``.

Each field of :class:`SimConfig` and of :class:`FaultConfig` (nested under
``faults=``) is perturbed to a valid different value.  A field that moves
nothing yet is not excluded would let two different simulations share
one cache entry; an excluded field that does move the digest is a
contradiction; an exclusion naming no field has gone stale.
"""

import dataclasses

import pytest

from repro.faults import config as faults_config
from repro.faults.config import FaultConfig
from repro.sim import config as sim_config
from repro.sim.config import SimConfig

#: Perturbations for fields the generic bool/int/float rule cannot pick.
#: A new non-numeric field fails the test until it gets an entry here.
EXPLICIT = {
    "workload": "hmmer",
    "policy": "Slow+SC",
    "eager_selector": "deadblock",
    "telemetry_dir": "telemetry-out",
    "checkpoint_every": 1000,
    "checkpoint_dir": "snapshots",
    "faults": FaultConfig(),
}

BASE = SimConfig(workload="lbm")
FAULTY = SimConfig(workload="lbm", faults=FaultConfig())


def _perturbed(name, value):
    if name in EXPLICIT:
        return EXPLICIT[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2 if value else 1
    if isinstance(value, float):
        return value / 2 if value else 0.5
    pytest.fail(f"no perturbation for field {name!r} = {value!r}; "
                "add one to EXPLICIT")


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _field_problem(base, name, key, excluded):
    """Why perturbing ``base.name`` disagrees with ``excluded``, or None."""
    changed = dataclasses.replace(
        base, **{name: _perturbed(name, getattr(base, name))})
    moved = key(changed) != key(base)
    if moved != (name in excluded):
        return None
    return (f"{type(base).__name__}.{name}: key "
            f"{'moved' if moved else 'unchanged'} but the field is "
            f"{'' if name in excluded else 'not '}listed in "
            "CACHE_KEY_EXCLUDED")


def key_problems(base, excluded, key=None):
    """Every way ``base``'s fields, its cache key and ``excluded`` disagree.

    ``key`` maps an instance to its cache key; it defaults to the class's
    own ``cache_key``, and a class without one has no key to keep
    complete.  Each field must move the key unless ``excluded`` names it,
    and every name in ``excluded`` must be a field.
    """
    if key is None:
        key = getattr(type(base), "cache_key", None)
        if key is None:
            return []
    names = _field_names(type(base))
    problems = [f"stale CACHE_KEY_EXCLUDED entry {name!r}"
                for name in excluded if name not in names]
    for name in names:
        problem = _field_problem(base, name, key, excluded)
        if problem is not None:
            problems.append(problem)
    return problems


def _faulty_digest(faults):
    return dataclasses.replace(FAULTY, faults=faults).cache_digest()


@pytest.mark.parametrize("name", _field_names(SimConfig))
def test_sim_config_field_moves_digest_unless_excluded(name):
    problem = _field_problem(BASE, name, SimConfig.cache_digest,
                             sim_config.CACHE_KEY_EXCLUDED)
    assert problem is None, problem


@pytest.mark.parametrize("name", _field_names(FaultConfig))
def test_fault_config_field_moves_digest_unless_excluded(name):
    problem = _field_problem(FAULTY.faults, name, _faulty_digest,
                             faults_config.CACHE_KEY_EXCLUDED)
    assert problem is None, problem


@pytest.mark.parametrize("module, cls", [(sim_config, SimConfig),
                                         (faults_config, FaultConfig)])
def test_exclusions_name_real_fields_with_reasons(module, cls):
    fields = set(_field_names(cls))
    for name, reason in module.CACHE_KEY_EXCLUDED.items():
        assert name in fields, f"stale CACHE_KEY_EXCLUDED entry {name!r}"
        assert reason.strip(), f"CACHE_KEY_EXCLUDED[{name!r}] has no reason"
