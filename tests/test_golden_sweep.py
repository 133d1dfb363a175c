"""The golden corpus through one parallel sweep: the oracle for forking
runs from a shared warm state.

``Runner.sweep`` warms each warm key once and restores that state into
every run sharing it (``SimConfig.warm_key``).  Forty-three of the corpus
entries fall into nine shared warm groups - several policies, window
lengths, fault settings, the sanitizer, telemetry and sliced runs over
one warm-up - so running all of them through one sweep and requiring
every result and bundle digest pins the fork to be bit-identical to
warming up in place.  Under ``REPRO_SANITIZE=1`` every forked result
also passes the result validators.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.export import run_result_to_dict
from repro.experiments.runner import Runner
from repro.store import MemoryStore
from repro.workloads.profiles import WORKLOAD_NAMES
from tests.golden_corpus import compensated_sum, entry_config, load_corpus

CORPUS = load_corpus()

pytestmark = pytest.mark.skipif(
    compensated_sum() != CORPUS["compensated_sum"],
    reason="corpus digests were generated by an interpreter whose builtin "
           "sum() rounds floats differently from this one")


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _configs() -> list:
    configs = []
    for entry in CORPUS["entries"]:
        config = entry_config(entry)
        if "slice_every" in entry:
            config = dataclasses.replace(
                config, checkpoint_every=entry["slice_every"])
        configs.append(config)
    return configs


def test_corpus_shares_warm_states():
    """The sweep below exercises the fork: most entries share a warm
    key with another entry."""
    counts = Counter(config.warm_key() for config in _configs()
                     if config.workload in WORKLOAD_NAMES)
    shared = [count for count in counts.values() if count > 1]
    assert (len(shared), sum(shared)) == (9, 42)


def test_corpus_through_one_sweep_reproduces_every_digest():
    configs = _configs()
    runner = Runner(store=MemoryStore())
    results = runner.sweep(configs, jobs=2, apply_env_scale=False)
    assert runner.simulated == len(configs)
    for entry, config, result in zip(CORPUS["entries"], configs, results):
        canonical = json.dumps(run_result_to_dict(result), sort_keys=True)
        assert _sha256(canonical.encode("utf-8")) == entry["result_sha256"], \
            entry["name"]
        if "bundle_sha256" in entry:
            bundle = Path(runner.store.bundle_dir(config.cache_digest()))
            assert {path.name: _sha256(path.read_bytes())
                    for path in sorted(bundle.iterdir())} \
                == entry["bundle_sha256"], entry["name"]
