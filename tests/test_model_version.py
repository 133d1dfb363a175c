"""``MODEL_VERSION`` moves with the simulated model.

Every cache key starts with :data:`repro.sim.config.MODEL_VERSION`, so a
change of simulated behaviour invalidates cached results only if the
version is bumped with it.  The golden corpus is the record of that
behaviour: this test pins a fingerprint of ``golden_results.json`` per
model version, so a corpus rewrite that leaves the version alone fails
here.  After an intended model change, regenerate the corpus, bump
``MODEL_VERSION`` and add the new fingerprint below.
"""
from __future__ import annotations

import hashlib
import json

from repro.sim import config as sim_config
from repro.sim.config import SimConfig
from tests.golden_corpus import load_corpus

#: MODEL_VERSION -> fingerprint of the golden corpus it produced.
CORPUS_FINGERPRINTS = {
    1: "dc76364b0cb6bac475a038c45001569bb338b33b2d6e45513d730aa595676f45",
}


def corpus_fingerprint() -> str:
    """sha256 over every entry's name and digests, in name order."""
    entries = sorted(load_corpus()["entries"], key=lambda e: e["name"])
    material = [[entry["name"], entry["result_sha256"],
                 entry.get("bundle_sha256")] for entry in entries]
    payload = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def test_corpus_matches_its_model_version() -> None:
    version = sim_config.MODEL_VERSION
    assert version in CORPUS_FINGERPRINTS, (
        f"no corpus fingerprint pinned for MODEL_VERSION {version}")
    assert corpus_fingerprint() == CORPUS_FINGERPRINTS[version], (
        "golden_results.json changed but MODEL_VERSION did not: bump it "
        "so results cached by the old model are not read back")


def test_bumping_model_version_moves_the_digest(monkeypatch) -> None:
    config = SimConfig(workload="lbm", policy="BE-Mellow+SC")
    before = config.cache_digest()
    monkeypatch.setattr(sim_config, "MODEL_VERSION",
                        sim_config.MODEL_VERSION + 1)
    assert config.cache_digest() != before
