"""Golden-result gate: every corpus entry must reproduce its digests.

The corpus (``tests/data/golden_results.json``, written by
``tests/golden_corpus.py``) pins about thirty small configs - every policy
family, hit- and miss-heavy workloads, a mix, fault injection up to an
uncorrectable end, the sanitizer, optional subsystems, a telemetry bundle
and checkpoint-sliced runs - to the sha256 of their canonical result
JSON.  A failure here means simulated behaviour changed: either fix the
regression or, for an intended model change, regenerate the corpus.
"""
from __future__ import annotations

from typing import Any, Dict

import pytest

from tests.golden_corpus import (compensated_sum, config_fields,
                                 corpus_configs, entry_config, load_corpus,
                                 run_entry)

CORPUS = load_corpus()
ENTRIES = {entry["name"]: entry for entry in CORPUS["entries"]}

pytestmark = pytest.mark.skipif(
    compensated_sum() != CORPUS["compensated_sum"],
    reason="corpus digests were generated by an interpreter whose builtin "
           "sum() rounds floats differently from this one")


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entry_reproduces_its_digests(name: str) -> None:
    entry: Dict[str, Any] = ENTRIES[name]
    digests = run_entry(entry_config(entry), entry.get("slice_every"))
    assert digests["result_sha256"] == entry["result_sha256"]
    if "bundle_sha256" in entry:
        assert digests["bundle_sha256"] == entry["bundle_sha256"]


def test_corpus_matches_its_definitions() -> None:
    """The committed configs are exactly what the writer would emit."""
    defined = corpus_configs()
    assert sorted(defined) == sorted(ENTRIES)
    for name, spec in defined.items():
        entry = ENTRIES[name]
        assert config_fields(spec["config"]) == entry["config"], name
        assert spec["slice_every"] == entry.get("slice_every"), name


def test_corpus_covers_the_required_shapes() -> None:
    configs = [entry_config(entry) for entry in ENTRIES.values()]
    policies = {config.policy_name for config in configs}
    assert {"Norm", "Slow+SC", "BE-Mellow+SC", "BE-Mellow+SC+WQ",
            "BE-Mellow+SC+WP", "BE-Mellow+SC+ML", "E-Norm+NC"} <= policies
    workloads = {config.workload for config in configs}
    assert {"hmmer", "gups", "lbm", "stream", "zeusmp"} <= workloads
    assert any(name.startswith("mix_") for name in workloads)
    assert any(config.faults and config.sanitize for config in configs)
    assert any(config.telemetry for config in configs)
    assert any("slice_every" in entry for entry in ENTRIES.values())
