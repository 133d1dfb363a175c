"""A/B equivalence gate: the hot path must be bit-identical to the oracle.

``REPRO_NO_FASTPATH=1`` selects the readable reference implementations
(the pre-optimization code paths kept as the correctness oracle); unset,
the hot-path layer engages - the core's analytic clock advance, the
LLC's inlined tag scan, the compiled trace generators, and the chunked
functional warmup.  None of that is allowed to change a single bit of
observable output: every test here runs the same config both ways and
requires byte-for-byte equality of the serialized results, including a
full telemetry bundle.

The switch is environment-only by design - it must never influence the
result cache key, or a cache populated in one mode would leak results
into the other (which bit-identity makes harmless, but only the tests
here keep that invariant true).
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.analysis.export import run_result_to_dict
from repro.faults import FaultConfig
from repro.hotpath import FASTPATH_ENV, fastpath_enabled
from repro.sim.sanitize import InvariantViolation
from repro.sim.config import SimConfig
from repro.sim.events import EventQueue
from repro.sim.system import run_simulation

POLICIES = ["Norm", "BE-Mellow+SC", "Slow+SC"]
WORKLOADS = ["hmmer", "lbm"]
SEEDS = [3, 11]


def _set_mode(monkeypatch: pytest.MonkeyPatch, fastpath: bool) -> None:
    if fastpath:
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
    else:
        monkeypatch.setenv(FASTPATH_ENV, "1")


def _run_json(monkeypatch: pytest.MonkeyPatch, config: SimConfig,
              fastpath: bool) -> str:
    _set_mode(monkeypatch, fastpath)
    return json.dumps(run_result_to_dict(run_simulation(config)),
                      sort_keys=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", POLICIES)
def test_ab_bit_identity(monkeypatch: pytest.MonkeyPatch, workload: str,
                         policy: str, seed: int) -> None:
    """Hit-heavy and mixed workloads across the policy space."""
    config = SimConfig(workload=workload, policy=policy,
                       seed=seed).scaled(0.05)
    assert (_run_json(monkeypatch, config, fastpath=True)
            == _run_json(monkeypatch, config, fastpath=False))


def test_ab_bit_identity_miss_heavy(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """gups misses almost always: exercises the miss/stall slow path and
    the core's clock-ownership rule (analytic advance is only legal when
    the core owns the outermost event frame)."""
    config = SimConfig(workload="gups", policy="BE-Mellow+SC",
                       seed=3).scaled(0.05)
    assert (_run_json(monkeypatch, config, fastpath=True)
            == _run_json(monkeypatch, config, fastpath=False))


def _random_small_config(rng: "random.Random") -> SimConfig:
    """A seeded random draw over the config space, kept cheap to run."""
    faults = None
    if rng.random() < 0.5:
        faults = FaultConfig(
            wear_acceleration=rng.choice([1e6, 5e6]),
            spare_lines_per_bank=rng.choice([2, 8]),
            max_write_retries=rng.choice([0, 1, 2]),
            stuck_mismatch_probability=rng.choice([0.25, 0.5, 1.0]),
        )
    return SimConfig(
        workload=rng.choice(["hmmer", "lbm", "zeusmp", "gups", "stream"]),
        policy=rng.choice([
            "Norm", "Slow+SC", "B-Mellow+SC", "BE-Mellow+SC+WQ", "E-Norm+NC",
        ]),
        seed=rng.randrange(1, 1000),
        slow_factor=rng.choice([2.0, 3.0]),
        num_banks=rng.choice([4, 8]),
        num_ranks=rng.choice([1, 2]),
        faults=faults,
    ).scaled(rng.choice([0.01, 0.02]))


@pytest.mark.parametrize("index", range(6))
def test_ab_bit_identity_randomized_configs(
        monkeypatch: pytest.MonkeyPatch, index: int) -> None:
    """Differential sweep over seeded-random configs, fault injection
    included: wherever the drawn config lands in the space, both
    implementations must serialize to the same bytes.  The draw is
    seeded per index, so a failure reproduces exactly."""
    config = _random_small_config(random.Random(0xFA57 + index))
    assert (_run_json(monkeypatch, config, fastpath=True)
            == _run_json(monkeypatch, config, fastpath=False))


def test_telemetry_bundle_byte_identity(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    """The full telemetry bundle - metric series, event trace, wear
    heatmap, manifest - must be byte-for-byte identical across modes.
    Telemetry timestamps are simulated time, so nothing here may vary."""
    bundles = {}
    for mode, fastpath in (("fast", True), ("ref", False)):
        out = tmp_path / mode
        config = SimConfig(workload="lbm", policy="BE-Mellow+SC+WQ", seed=3,
                           telemetry=True,
                           telemetry_dir=str(out)).scaled(0.05)
        _set_mode(monkeypatch, fastpath)
        run_simulation(config)
        bundles[mode] = {
            path.name: path.read_bytes() for path in sorted(out.iterdir())
        }
    assert bundles["fast"].keys() == bundles["ref"].keys()
    for name, payload in bundles["fast"].items():
        assert payload == bundles["ref"][name], f"{name} diverged"


def test_fastpath_env_not_in_cache_key(
        monkeypatch: pytest.MonkeyPatch) -> None:
    config = SimConfig(workload="lbm", policy="Norm")
    _set_mode(monkeypatch, fastpath=True)
    key = config.cache_key()
    _set_mode(monkeypatch, fastpath=False)
    assert config.cache_key() == key


@pytest.mark.parametrize("value,expected", [
    ("1", False), ("true", False), ("YES", False), (" on ", False),
    ("", True), ("0", True), ("off", True), ("no", True),
])
def test_fastpath_env_parsing(monkeypatch: pytest.MonkeyPatch,
                              value: str, expected: bool) -> None:
    monkeypatch.setenv(FASTPATH_ENV, value)
    assert fastpath_enabled() is expected


def test_fastpath_default_on(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv(FASTPATH_ENV, raising=False)
    assert fastpath_enabled() is True


# ---------------------------------------------------------------------------
# Adversarial unit tests for the batch-advance seams (EventQueue).  Each
# targets an edge the analytic jump / deferred-event machinery could get
# subtly wrong while still passing the statistical A/B matrix above.
# ---------------------------------------------------------------------------


def test_advance_if_clear_refuses_exact_tie_with_heap_event() -> None:
    """An event due exactly at the jump target must win: the tie has to
    go through the heap so sequence ordering decides, not the jumper."""
    q = EventQueue(sanitize=False)
    q.schedule(10.0, lambda: None)
    assert q.advance_if_clear(10.0) is False
    assert q.now == 0.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    # Strictly before the pending event the window is quiescent.
    assert q.advance_if_clear(9.0) is True
    assert q.now == 9.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_advance_if_clear_refuses_exact_tie_with_deferred_event() -> None:
    """A deferred event counts as pending even though it is not in the
    heap: jumping over (or onto) it would run the window out of order."""
    q = EventQueue(sanitize=False)
    q.defer(10.0, lambda: None)
    assert q.advance_if_clear(10.0) is False
    assert q.advance_if_clear(11.0) is False
    assert q.advance_if_clear(9.5) is True
    assert q.now == 9.5   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_run_fast_zero_length_deferred_window_runs_inline() -> None:
    """A deferral at exactly ``now`` (zero-length quiescent window) must
    resolve inline without moving the clock - the degenerate jump."""
    q = EventQueue(sanitize=False)
    q.schedule(5.0, lambda: None)
    assert q.run_fast(budget=1) == 1
    assert q.now == 5.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    fired = []
    q.defer(5.0, lambda: fired.append(q.now))
    assert q.run_fast(budget=10) == 1
    assert fired == [5.0]
    assert q.now == 5.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed
    assert q.deferred_time is None


def test_run_fast_flushes_deferral_on_time_tie_fifo_order() -> None:
    """schedule(t) / defer(t) / schedule(t): all three tie on time, so
    reserved sequence numbers must serialize them in call order."""
    q = EventQueue(sanitize=False)
    order = []
    q.schedule(10.0, lambda: order.append("first-scheduled"))
    q.defer(10.0, lambda: order.append("deferred"))
    q.schedule(10.0, lambda: order.append("last-scheduled"))
    assert q.run_fast(budget=10) == 3
    assert order == ["first-scheduled", "deferred", "last-scheduled"]
    assert q.now == 10.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_run_fast_flushes_deferral_past_earlier_heap_event() -> None:
    """An event scheduled *after* the deferral but due *before* it (the
    epoch-tick-inside-a-quiescent-window shape) must run first; the
    deferral is flushed into the heap and keeps its reserved sequence."""
    q = EventQueue(sanitize=False)
    order = []
    q.defer(50.0, lambda: order.append(("miss-completion", q.now)))
    q.schedule(30.0, lambda: order.append(("epoch-tick", q.now)))
    assert q.run_fast(budget=10) == 2
    assert order == [("epoch-tick", 30.0), ("miss-completion", 50.0)]
    assert q.now == 50.0   # simlint: ignore[SIM004] -- exact by construction: jump targets are set, not computed


def test_run_fast_deferred_seam_with_sanitizer_armed() -> None:
    """The inline-resolution branch has its own monotonicity check; a
    legal window must pass it and an illegal jump must trip it."""
    q = EventQueue(sanitize=True)
    fired = []
    q.defer(20.0, lambda: fired.append(q.now))
    assert q.run_fast(budget=10) == 1
    assert fired == [20.0]
    with pytest.raises(InvariantViolation):
        q.advance_if_clear(5.0)   # behind now=20 with the sanitizer armed


def test_defer_contract() -> None:
    """One deferral at a time, never into the past."""
    q = EventQueue(sanitize=False)
    q.schedule(5.0, lambda: None)
    q.run_fast(budget=1)
    with pytest.raises(ValueError):
        q.defer(4.0, lambda: None)
    q.defer(6.0, lambda: None)
    with pytest.raises(RuntimeError):
        q.defer(7.0, lambda: None)
    q.flush_deferred()
    with pytest.raises(RuntimeError):
        q.flush_deferred()


def test_ab_bit_identity_sanitizer_armed(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """With ``REPRO_SANITIZE=1`` the controller drops to the reference
    spine but the core/LLC/event-queue seams stay engaged - the armed
    monotonicity checks must all pass and the output must still match."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    config = SimConfig(workload="gups", policy="BE-Mellow+SC",
                       seed=3).scaled(0.02)
    assert (_run_json(monkeypatch, config, fastpath=True)
            == _run_json(monkeypatch, config, fastpath=False))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", ["Norm", "BE-Mellow+SC"])
@pytest.mark.parametrize("workload", ["gups", "lbm", "stream"])
def test_ab_bit_identity_miss_heavy_with_faults(
        monkeypatch: pytest.MonkeyPatch, workload: str, policy: str,
        seed: int) -> None:
    """Miss-heavy workloads with fault injection enabled: faults force
    the controller onto the reference spine while the warmup, trace and
    core seams stay hot, so this pins the boundary between the two."""
    faults = FaultConfig(
        wear_acceleration=5e6,
        spare_lines_per_bank=2,
        max_write_retries=1,
        stuck_mismatch_probability=0.5,
    )
    config = SimConfig(workload=workload, policy=policy, seed=seed,
                       faults=faults).scaled(0.02)
    assert (_run_json(monkeypatch, config, fastpath=True)
            == _run_json(monkeypatch, config, fastpath=False))
