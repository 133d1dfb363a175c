"""Tests for the fault-injection & graceful-degradation subsystem."""

import json
import random

import pytest

from repro.endurance.model import EnduranceModel
from repro.experiments.faults import survival_time_ns
from repro.experiments.runner import Runner
from repro.faults import (
    WRITE_FATAL,
    WRITE_OK,
    WRITE_RETIRED,
    WRITE_RETRY,
    FaultConfig,
    FaultInjector,
)
from repro.faults.ecc import (
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED,
    codeword_length,
    decode,
    encode,
    parity_bit_count,
)
from repro.sim.config import SimConfig
from repro.sim.system import run_simulation
from repro.store import result_from_dict, result_to_dict


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def make_injector(now=0.0, **overrides):
    """An injector with a fixed seed and an advanceable clock."""
    clock = {"now": now}
    config = FaultConfig(**overrides)
    injector = FaultInjector(
        config=config, num_banks=2, model=EnduranceModel(),
        rng=random.Random(1234), clock=lambda: clock["now"],
    )
    return injector, clock


# --------------------------------------------------------------------------
# SECDED ECC basics (exhaustive flip coverage lives in test_properties)
# --------------------------------------------------------------------------


def test_ecc_geometry_for_64_bit_words():
    # Classic (72,64) extended Hamming: 7 parity bits + overall parity.
    assert parity_bit_count(64) == 7
    assert codeword_length(64) == 72


def test_ecc_clean_round_trip():
    word = 0xDEAD_BEEF_0123_4567
    outcome = decode(encode(word))
    assert (outcome.status, outcome.data) == (STATUS_CLEAN, word)


def test_ecc_corrects_single_and_detects_double():
    word = 0x0123_4567_89AB_CDEF
    codeword = encode(word)
    one_flip = decode(codeword ^ (1 << 13))
    assert one_flip.status == STATUS_CORRECTED
    assert one_flip.data == word
    assert one_flip.corrected_position == 13
    two_flips = decode(codeword ^ (1 << 13) ^ (1 << 40))
    assert two_flips.status == STATUS_DETECTED
    assert two_flips.data == -1


# --------------------------------------------------------------------------
# FaultConfig validation and cache identity
# --------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"median_endurance": 0.0},
    {"sigma": -0.1},
    {"cells_per_line": 0},
    {"spare_lines_per_bank": -1},
    {"max_write_retries": -1},
    {"stuck_mismatch_probability": 1.5},
    {"wear_acceleration": 0.0},
])
def test_fault_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FaultConfig(**kwargs)


def test_fault_config_key_is_tagged_and_value_sensitive():
    assert FaultConfig().key()[0] == "faults"
    assert FaultConfig().key() != FaultConfig(sigma=0.4).key()


# Digests first recorded before the faults field existed, and re-pinned
# once when the key gained MODEL_VERSION.  faults=None (the default) must
# keep producing them bit-for-bit, or every cached result in every
# existing cache directory would silently invalidate.
PRE_FAULTS_DIGESTS = {
    ("lbm", "Norm", 1, 16, 4): "91af9deb1bc98a2360aebfba",
    ("hmmer", "BE-Mellow+SC+WQ", 7, 16, 4): "1b2646726ef3b8f402ec2084",
    ("gups", "Slow+SC", 1, 8, 2): "060feb5a3436cee3da4218ab",
}


@pytest.mark.parametrize(
    "workload,policy,seed,banks,ranks", sorted(PRE_FAULTS_DIGESTS))
def test_disabled_faults_keep_pre_faults_cache_digests(
        workload, policy, seed, banks, ranks):
    config = SimConfig(workload=workload, policy=policy, seed=seed,
                       num_banks=banks, num_ranks=ranks)
    expected = PRE_FAULTS_DIGESTS[(workload, policy, seed, banks, ranks)]
    assert config.cache_digest() == expected


def test_enabled_faults_change_the_cache_key():
    base = SimConfig(workload="lbm")
    with_faults = SimConfig(workload="lbm", faults=FaultConfig())
    assert base.cache_key() != with_faults.cache_key()
    tweaked = SimConfig(workload="lbm",
                        faults=FaultConfig(spare_lines_per_bank=4))
    assert with_faults.cache_key() != tweaked.cache_key()


# --------------------------------------------------------------------------
# Injector unit behavior
# --------------------------------------------------------------------------


def test_injector_is_deterministic_per_seed():
    def drive(injector):
        outcomes = []
        for i in range(200):
            injector.record_damage(i % 2, i % 17, 1.0, 1.0)
            outcomes.append(injector.verify_write(i % 2, i % 17, 0))
        return outcomes, injector.stats

    first, _ = make_injector(wear_acceleration=2.5e6)
    second, _ = make_injector(wear_acceleration=2.5e6)
    outcomes_a, stats_a = drive(first)
    outcomes_b, stats_b = drive(second)
    assert outcomes_a == outcomes_b
    assert stats_a == stats_b


def test_slow_writes_age_cells_slower():
    # Equal write counts, but the slow line deposits factor**-expo per
    # write (1/9 at 3x with Expo_Factor 2): the Mellow Writes trade.
    injector, _ = make_injector(wear_acceleration=5e6)
    for _ in range(4):
        injector.record_damage(0, 1, 1.0, 1.0)   # fast line
        injector.record_damage(0, 2, 3.0, 1.0)   # slow line
    assert injector.dead_cells(0, 1) > 0
    assert injector.dead_cells(0, 2) == 0


def test_first_failure_timestamp_comes_from_the_clock():
    injector, clock = make_injector(wear_acceleration=5e6)
    clock["now"] = 777.5
    assert injector.record_damage(0, 0, 1.0, 1.0) > 0
    assert injector.stats.first_failure_ns == 777.5   # simlint: ignore[SIM004] -- exact stamp
    clock["now"] = 999.0   # later failures must not move the first stamp
    injector.record_damage(0, 5, 1.0, 1.0)
    assert injector.stats.first_failure_ns == 777.5   # simlint: ignore[SIM004] -- exact stamp


def test_verify_ladder_retry_then_retire_then_fatal():
    # Every cell dead and every dead cell mismatching: verification must
    # escalate retry -> retire (spare) -> fatal (no spare left).
    injector, clock = make_injector(
        wear_acceleration=1e9, stuck_mismatch_probability=1.0,
        spare_lines_per_bank=1, max_write_retries=1,
    )
    injector.record_damage(0, 0, 1.0, 1.0)
    assert injector.dead_cells(0, 0) == injector.config.cells_per_line
    assert injector.verify_write(0, 0, 0) == WRITE_RETRY
    assert injector.verify_write(0, 0, 1) == WRITE_RETIRED
    assert injector.dead_cells(0, 0) == 0     # fresh spare cells
    assert injector.stats.lines_retired == 1
    # Exhaust the spare on another line; next escalation is terminal.
    injector.record_damage(0, 1, 1.0, 1.0)
    clock["now"] = 4242.0
    assert injector.verify_write(0, 1, 1) == WRITE_FATAL
    assert injector.uncorrectable
    assert injector.stats.uncorrectable_ns == 4242.0   # simlint: ignore[SIM004] -- exact stamp


def test_healthy_lines_verify_ok():
    injector, _ = make_injector()   # physical endurance: nothing dies
    injector.record_damage(0, 0, 1.0, 1.0)
    assert injector.verify_write(0, 0, 0) == WRITE_OK
    assert injector.stats == type(injector.stats)()


# --------------------------------------------------------------------------
# End-to-end runs
# --------------------------------------------------------------------------

FAULTY = FaultConfig(wear_acceleration=5e6, spare_lines_per_bank=8,
                     max_write_retries=1)


def faulty_config(policy="Norm", workload="zeusmp", seed=3, scale=0.02):
    return SimConfig(workload=workload, policy=policy, seed=seed,
                     faults=FAULTY).scaled(scale)


def test_default_run_reports_faults_disabled():
    result = run_simulation(SimConfig(workload="hmmer").scaled(0.02))
    assert not result.faults_enabled
    assert not result.uncorrectable
    assert result.time_to_first_failure_ns == -1.0   # simlint: ignore[SIM004] -- sentinel
    assert result.time_to_uncorrectable_ns == -1.0   # simlint: ignore[SIM004] -- sentinel
    assert result.cells_failed == 0
    assert result.lines_retired == 0


def test_fault_run_degrades_then_ends_gracefully():
    result = run_simulation(faulty_config("Norm"))
    assert result.faults_enabled
    assert result.uncorrectable
    assert result.cells_failed > 0
    assert result.lines_retired > 0
    assert result.fault_write_retries > 0
    assert 0.0 <= result.time_to_first_failure_ns
    assert result.time_to_first_failure_ns <= result.time_to_uncorrectable_ns
    # Graceful: the run still produced a coherent measured window.
    assert result.window_ns > 0.0
    assert result.instructions > 0


def test_fault_runs_are_deterministic():
    first = result_to_dict(run_simulation(faulty_config("BE-Mellow+SC")))
    second = result_to_dict(run_simulation(faulty_config("BE-Mellow+SC")))
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True)


def test_mellow_outlives_norm_under_fault_injection():
    norm = run_simulation(faulty_config("Norm"))
    slow = run_simulation(faulty_config("Slow+SC"))
    assert norm.uncorrectable
    assert survival_time_ns(slow) > survival_time_ns(norm)


def test_survival_time_censors_survivors_at_window():
    norm = run_simulation(faulty_config("Norm"))
    assert survival_time_ns(norm) == norm.time_to_uncorrectable_ns   # simlint: ignore[SIM004]
    clean = run_simulation(SimConfig(workload="hmmer").scaled(0.02))
    assert survival_time_ns(clean) == clean.window_ns   # simlint: ignore[SIM004] -- selfsame


# --------------------------------------------------------------------------
# Cache and sweep integration
# --------------------------------------------------------------------------


def test_fault_results_round_trip_through_the_cache_codec():
    result = run_simulation(faulty_config("Norm"))
    restored = result_from_dict(result_to_dict(result))
    assert restored == result


def test_runner_cache_hit_preserves_fault_fields():
    config = faulty_config("Norm")
    runner = Runner()
    fresh = runner.run(config)
    cached = Runner().run(config)   # new runner: must come from disk
    assert cached == fresh
    assert cached.uncorrectable


def test_serial_and_parallel_sweeps_agree_with_faults(tmp_path, monkeypatch):
    grid = [faulty_config("Norm", seed=s, scale=0.01) for s in (1, 2, 3)]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    serial = Runner().sweep(grid, jobs=1)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
    parallel = Runner().sweep(grid, jobs=3)
    assert serial == parallel


# --------------------------------------------------------------------------
# Telemetry integration
# --------------------------------------------------------------------------


def test_traced_fault_run_exports_fault_telemetry():
    result, bundle = Runner().run_traced(faulty_config("Norm"))
    assert result.uncorrectable
    metrics = json.loads((bundle / "metrics.json").read_text())
    series = metrics["series"]
    assert "faults.cells_failed" in series
    assert "faults.spare_lines_left" in series
    heatmap = json.loads((bundle / "heatmap.json").read_text())
    retired = heatmap["retired"]
    assert retired["num_banks"] == result.num_banks
    assert sum(retired["cumulative"][-1]) == result.lines_retired
    # One count per bank: the per-bank series and the heatmap agree.
    for bank in range(result.num_banks):
        assert series[f"bank.{bank:02d}.lines_retired"][-1] \
            == retired["cumulative"][-1][bank]
    kinds = {json.loads(line)["kind"]
             for line in (bundle / "trace.jsonl").read_text().splitlines()}
    assert "cell_fail" in kinds
    assert "uncorrectable" in kinds


def test_untraced_bundles_have_no_retired_heatmap():
    _result, bundle = Runner().run_traced(
        SimConfig(workload="hmmer").scaled(0.02))
    heatmap = json.loads((bundle / "heatmap.json").read_text())
    assert "retired" not in heatmap
