"""Tests for Table III policy parsing and semantics."""

import pytest

from repro.core.policies import (
    PAPER_POLICY_NAMES,
    WritePolicy,
    paper_policies,
    parse_policy,
)


def test_norm_policy():
    p = parse_policy("Norm")
    assert not p.all_slow and not p.bank_aware and not p.eager
    assert not p.cancel_normal and not p.cancel_slow and not p.wear_quota


def test_slow_policy():
    assert parse_policy("Slow").all_slow


def test_b_mellow():
    p = parse_policy("B-Mellow")
    assert p.bank_aware and not p.eager


def test_be_mellow_full_stack():
    p = parse_policy("BE-Mellow+SC+WQ")
    assert p.bank_aware and p.eager and p.eager_slow
    assert p.cancel_slow and not p.cancel_normal
    assert p.wear_quota


def test_e_norm_issues_eager_at_normal_speed():
    p = parse_policy("E-Norm+NC")
    assert p.eager and not p.eager_slow
    assert p.cancel_normal and not p.cancel_slow


def test_e_slow():
    p = parse_policy("E-Slow+SC")
    assert p.all_slow and p.eager and p.eager_slow and p.cancel_slow


def test_parse_is_case_insensitive():
    p = parse_policy("be-mellow+sc+wq")
    assert p.bank_aware and p.eager and p.cancel_slow and p.wear_quota


def test_unknown_base_rejected():
    with pytest.raises(ValueError):
        parse_policy("Fast")


def test_unknown_suffix_rejected():
    with pytest.raises(ValueError):
        parse_policy("Norm+XX")


def test_cancellable_by_speed():
    p = parse_policy("B-Mellow+SC")
    assert p.cancellable(slow=True)
    assert not p.cancellable(slow=False)
    q = parse_policy("E-Norm+NC")
    assert q.cancellable(slow=False)
    assert not q.cancellable(slow=True)


def test_uses_slow_writes():
    assert not parse_policy("Norm").uses_slow_writes
    assert parse_policy("Norm+WQ").uses_slow_writes
    assert parse_policy("Slow").uses_slow_writes
    assert parse_policy("B-Mellow").uses_slow_writes
    assert not parse_policy("E-Norm").uses_slow_writes


def test_slow_factor_plumbing():
    p = parse_policy("Slow", slow_factor=2.0)
    assert p.slow_factor == 2.0


def test_invalid_slow_factor():
    with pytest.raises(ValueError):
        WritePolicy(name="bad", slow_factor=0.5)


def test_slow_and_bank_aware_conflict():
    with pytest.raises(ValueError):
        WritePolicy(name="bad", all_slow=True, bank_aware=True)


def test_paper_policy_list_parses():
    policies = paper_policies()
    assert len(policies) == len(PAPER_POLICY_NAMES)
    by_name = {p.name: p for p in policies}
    assert by_name["BE-Mellow+SC+WQ"].wear_quota
    assert by_name["Norm"].name == "Norm"
