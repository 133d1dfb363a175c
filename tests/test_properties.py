"""Property-based tests (hypothesis) for the simulator's algebraic cores.

Three families of invariants that example-based tests can only sample:

* the Start-Gap remap stays a bijection under *arbitrary* gap movements,
  not just the handful a scripted test drives;
* the endurance model is monotone in write-pulse width for every
  exponent, so a slower write can never look worse for lifetime;
* SECDED ECC round-trips every word, corrects every possible 1-bit
  flip, and detects every possible 2-bit flip.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.endurance.leveling import StartGapLeveler
from repro.endurance.model import EnduranceModel
from repro.endurance.variability import EnduranceVariability
from repro.faults.ecc import (
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED,
    codeword_length,
    decode,
    encode,
)

# --------------------------------------------------------------------------
# Wear-leveling maps stay bijective under arbitrary write sequences
# --------------------------------------------------------------------------


def _assert_bijective(leveler, num_lines, num_slots):
    images = [leveler.remap(logical) for logical in range(num_lines)]
    assert len(set(images)) == num_lines, "remap collided two lines"
    assert all(0 <= p < num_slots for p in images), "remap out of range"
    return images


@settings(deadline=None)
@given(
    num_lines=st.integers(min_value=1, max_value=200),
    psi=st.integers(min_value=1, max_value=40),
    writes=st.integers(min_value=0, max_value=2000),
)
def test_startgap_remap_is_bijective_under_any_gap_position(
        num_lines, psi, writes):
    leveler = StartGapLeveler(num_lines, psi=psi)
    for _ in range(writes):
        leveler.record_write()
    images = _assert_bijective(leveler, num_lines, num_lines + 1)
    # The gap slot is exactly the one physical slot with no preimage.
    assert leveler._inner.gap not in images


# --------------------------------------------------------------------------
# Endurance model: monotone in write-pulse width
# --------------------------------------------------------------------------


@given(
    factor_a=st.floats(min_value=0.1, max_value=32.0,
                       allow_nan=False, allow_infinity=False),
    factor_b=st.floats(min_value=0.1, max_value=32.0,
                       allow_nan=False, allow_infinity=False),
    expo=st.floats(min_value=0.0, max_value=4.0,
                   allow_nan=False, allow_infinity=False),
)
def test_endurance_monotone_in_pulse_width(factor_a, factor_b, expo):
    model = EnduranceModel(expo_factor=expo)
    slow, fast = max(factor_a, factor_b), min(factor_a, factor_b)
    # A longer pulse never endures fewer writes, and one of its writes
    # never deposits more damage.
    assert (model.endurance_at_factor(slow)
            >= model.endurance_at_factor(fast))
    assert model.damage_per_write(slow) <= model.damage_per_write(fast)
    # Same statement through the latency-domain entry point.
    t_fast = fast * model.base_latency_ns
    t_slow = slow * model.base_latency_ns
    assert (model.endurance_at_latency(t_slow)
            >= model.endurance_at_latency(t_fast))


@given(
    factor=st.floats(min_value=0.1, max_value=32.0,
                     allow_nan=False, allow_infinity=False),
    expo=st.floats(min_value=0.25, max_value=4.0,
                   allow_nan=False, allow_infinity=False),
)
def test_endurance_inverse_round_trips(factor, expo):
    model = EnduranceModel(expo_factor=expo)
    endurance = model.endurance_at_factor(factor)
    latency = model.latency_for_endurance(endurance)
    assert math.isclose(latency, factor * model.base_latency_ns,
                        rel_tol=1e-9)


@given(
    median=st.floats(min_value=1e3, max_value=1e8,
                     allow_nan=False, allow_infinity=False),
    sigma=st.floats(min_value=0.0, max_value=1.0,
                    allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=2 ** 31),
    count=st.integers(min_value=1, max_value=64),
)
def test_cell_limit_samples_positive_and_deterministic(
        median, sigma, seed, count):
    import random
    spread = EnduranceVariability(median_endurance=median, sigma=sigma)
    first = spread.sample_cell_limits(random.Random(seed), count)
    again = spread.sample_cell_limits(random.Random(seed), count)
    assert first == again, "same seed must draw the same limits"
    assert len(first) == count
    assert all(limit > 0.0 for limit in first)


# --------------------------------------------------------------------------
# SECDED ECC: round-trip / correct-1 / detect-2, exhaustive over bits
# --------------------------------------------------------------------------

_WORDS = st.integers(min_value=0, max_value=2 ** 64 - 1)
_TOTAL_BITS = codeword_length(64)


@given(data=_WORDS)
def test_ecc_round_trips_clean_words(data):
    outcome = decode(encode(data))
    assert outcome.status == STATUS_CLEAN
    assert outcome.data == data
    assert outcome.corrected_position == -1


@given(data=_WORDS, flip=st.integers(min_value=0,
                                     max_value=_TOTAL_BITS - 1))
def test_ecc_corrects_any_single_bit_flip(data, flip):
    corrupted = encode(data) ^ (1 << flip)
    outcome = decode(corrupted)
    assert outcome.status == STATUS_CORRECTED
    assert outcome.data == data
    assert outcome.corrected_position == flip


@given(
    data=_WORDS,
    flips=st.sets(st.integers(min_value=0, max_value=_TOTAL_BITS - 1),
                  min_size=2, max_size=2),
)
def test_ecc_detects_any_double_bit_flip(data, flips):
    corrupted = encode(data)
    for position in flips:
        corrupted ^= 1 << position
    outcome = decode(corrupted)
    assert outcome.status == STATUS_DETECTED
    assert outcome.data == -1


@given(data=st.integers(min_value=0, max_value=2 ** 16 - 1),
       flip=st.integers(min_value=0, max_value=codeword_length(16) - 1))
def test_ecc_handles_other_word_widths(data, flip):
    corrupted = encode(data, data_bits=16) ^ (1 << flip)
    outcome = decode(corrupted, data_bits=16)
    assert outcome.status == STATUS_CORRECTED
    assert outcome.data == data
