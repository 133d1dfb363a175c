"""Tests for SimConfig identity, scaling and policy plumbing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policies import parse_policy
from repro.sim.config import SimConfig


def test_cache_key_stable():
    a = SimConfig(workload="lbm")
    b = SimConfig(workload="lbm")
    assert a.cache_key() == b.cache_key()


@pytest.mark.parametrize("field,value", [
    ("policy", "Slow+SC"),
    ("slow_factor", 2.0),
    ("num_banks", 8),
    ("expo_factor", 1.5),
    ("seed", 2),
    ("eager_selector", "deadblock"),
    ("flip_n_write", True),
    ("dram_buffer_entries", 64),
    ("target_lifetime_years", 4.0),
])
def test_cache_key_sensitive_to_every_knob(field, value):
    base = SimConfig(workload="lbm")
    kwargs = {field: value}
    if field == "num_banks":
        kwargs["num_ranks"] = 2
    changed = SimConfig(workload="lbm", **kwargs)
    assert base.cache_key() != changed.cache_key(), field


def test_write_policy_inherits_slow_factor():
    config = SimConfig(workload="lbm", policy="Slow", slow_factor=2.0)
    assert config.write_policy.slow_factor == 2.0


def test_policy_object_is_refused():
    """The cache key names a policy by its string, so a policy object
    must not stand in for one."""
    with pytest.raises(TypeError):
        SimConfig(workload="lbm", policy=parse_policy("B-Mellow+SC"))


def test_invalid_ranks():
    with pytest.raises(ValueError):
        SimConfig(workload="lbm", num_banks=6, num_ranks=4)


def test_scaled_floors():
    tiny = SimConfig(workload="lbm").scaled(0.0001)
    assert tiny.warmup_accesses >= 1000
    assert tiny.measure_accesses >= 2000


def test_scaled_rejects_nonpositive():
    with pytest.raises(ValueError):
        SimConfig(workload="lbm").scaled(0)


@given(fraction=st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=30)
def test_scaled_is_monotone(fraction):
    base = SimConfig(workload="lbm")
    scaled = base.scaled(fraction)
    assert scaled.measure_accesses <= base.measure_accesses
    assert scaled.warmup_accesses <= base.warmup_accesses
