"""Golden-result corpus: configs pinned to the digest of their results.

``tests/data/golden_results.json`` maps fifty small configs to the
sha256 of their canonical ``run_result_to_dict`` JSON (and, for traced
configs, of every telemetry bundle file).  ``tests/test_golden.py`` reruns
each entry and requires the same digests, so any change in simulated
behaviour shows up as a named, reproducible diff.

Regenerate (or just check) the corpus from the repo root::

    PYTHONPATH=src python tests/golden_corpus.py           # check only
    PYTHONPATH=src python tests/golden_corpus.py --write   # rewrite

The corpus was first generated while the simulator still carried a
second, reference implementation of its inner loops, with every entry
run on both and required to agree; it has been the oracle since that
twin was deleted.  Regenerate it only for an intended change of
simulated behaviour, and say which entries moved and why.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.export import run_result_to_dict
from repro.checkpoint import config_from_dict, restore_system, save_snapshot
from repro.faults import FaultConfig
from repro.sim.config import SimConfig
from repro.sim.system import System

CORPUS_PATH = Path(__file__).resolve().parent / "data" / "golden_results.json"
CORPUS_SCHEMA = 1

#: Moderate aging: write-verify retries and line retirements happen; most
#: runs survive the window (lbm under it does not).
FAULTS_MILD = FaultConfig(wear_acceleration=3e6, spare_lines_per_bank=8,
                          max_write_retries=2)
#: Harsh aging with a tiny spare pool: runs end uncorrectable quickly.
FAULTS_HARSH = FaultConfig(wear_acceleration=5e6, spare_lines_per_bank=2,
                           max_write_retries=1,
                           stuck_mismatch_probability=0.5)


def random_small_config(rng: random.Random) -> SimConfig:
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


def _config(workload: str, policy: str, seed: int = 3, scale: float = 0.05,
            **fields: Any) -> SimConfig:
    return SimConfig(workload=workload, policy=policy, seed=seed,
                     **fields).scaled(scale)


def corpus_configs() -> Dict[str, Dict[str, Any]]:
    """Entry name -> ``{"config": SimConfig, "slice_every": int|None}``.

    The ``matrix`` and ``faults-matrix`` entries, ``workload/gups/
    BE-Mellow+SC``, ``sanitize/gups/BE-Mellow+SC``, ``telemetry/...`` and
    ``random/*`` are the configs the hot-path/reference A/B tests ran.
    """
    entries: Dict[str, SimConfig] = {}
    for workload in ("hmmer", "lbm"):
        for policy in ("Norm", "BE-Mellow+SC", "Slow+SC"):
            for seed in (3, 11):
                entries[f"matrix/{workload}/{policy}/{seed}"] = _config(
                    workload, policy, seed=seed)
    for policy in ("BE-Mellow+SC+WQ", "BE-Mellow+SC+WP", "BE-Mellow+SC+ML",
                   "E-Norm+NC"):
        entries[f"policy/lbm/{policy}"] = _config("lbm", policy)
    for workload, policy in (("gups", "Norm"), ("gups", "BE-Mellow+SC"),
                             ("stream", "BE-Mellow+SC"),
                             ("zeusmp", "BE-Mellow+SC")):
        entries[f"workload/{workload}/{policy}"] = _config(workload, policy)
    entries["workload/mix_write_heavy/BE-Mellow+SC"] = _config(
        "mix_write_heavy", "BE-Mellow+SC", scale=0.02)
    for workload in ("gups", "lbm", "stream"):
        for policy in ("Norm", "BE-Mellow+SC"):
            for seed in (3, 11):
                entries[f"faults-matrix/{workload}/{policy}/{seed}"] = _config(
                    workload, policy, seed=seed, scale=0.02,
                    faults=FAULTS_HARSH)
    entries["faults/zeusmp/Norm"] = _config(
        "zeusmp", "Norm", faults=FAULTS_MILD)
    entries["faults/gups/BE-Mellow+SC+WP"] = _config(
        "gups", "BE-Mellow+SC+WP", faults=FAULTS_MILD)
    entries["faults-uncorrectable/lbm/BE-Mellow+SC+WQ"] = _config(
        "lbm", "BE-Mellow+SC+WQ", faults=FAULTS_MILD)
    entries["faults-uncorrectable/gups/BE-Mellow+SC"] = _config(
        "gups", "BE-Mellow+SC", faults=FAULTS_HARSH)
    entries["option/dram_buffer+flip_n_write/lbm/Norm"] = _config(
        "lbm", "Norm", dram_buffer_entries=16, flip_n_write=True)
    entries["sanitize/gups/BE-Mellow+SC"] = _config(
        "gups", "BE-Mellow+SC", scale=0.02, sanitize=True)
    entries["sanitize+faults/zeusmp/BE-Mellow+SC"] = _config(
        "zeusmp", "BE-Mellow+SC", sanitize=True, faults=FAULTS_MILD)
    entries["telemetry/lbm/BE-Mellow+SC+WQ"] = _config(
        "lbm", "BE-Mellow+SC+WQ", telemetry=True)
    entries["telemetry+faults/gups/BE-Mellow+SC"] = _config(
        "gups", "BE-Mellow+SC", telemetry=True, faults=FAULTS_HARSH)
    for index in range(6):
        entries[f"random/{index}"] = random_small_config(
            random.Random(0xFA57 + index))
    corpus = {name: {"config": config, "slice_every": None}
              for name, config in entries.items()}
    corpus["sliced/zeusmp/BE-Mellow+SC+faults+sanitize"] = {
        "config": _config("zeusmp", "BE-Mellow+SC", scale=0.02,
                          sanitize=True, faults=FAULTS_MILD),
        "slice_every": 800,
    }
    corpus["sliced/lbm/BE-Mellow+SC+WP"] = {
        "config": _config("lbm", "BE-Mellow+SC+WP", scale=0.02),
        "slice_every": 900,
    }
    return corpus


def config_fields(config: SimConfig) -> Dict[str, Any]:
    """The fields of ``config`` that differ from the defaults, JSON-ready."""
    defaults = SimConfig(workload=config.workload)
    data: Dict[str, Any] = {}
    for field in dataclasses.fields(SimConfig):
        value = getattr(config, field.name)
        if field.name != "workload" and value == getattr(defaults, field.name):
            continue
        if field.name == "policy":
            value = config.policy_name
        elif field.name == "faults":
            value = dataclasses.asdict(value)
        data[field.name] = value
    return data


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def compensated_sum() -> bool:
    """Whether builtin ``sum()`` compensates float rounding (Python 3.12+).

    Results are sums of floats in a few places, so digests are only
    comparable between interpreters that agree on this.
    """
    return sum([1.0, 1e100, 1.0, -1e100]) == 2.0


def run_entry(config: SimConfig, slice_every: Optional[int]
              ) -> Dict[str, Any]:
    """Run one entry; returns its digests.

    A sliced entry pauses every ``slice_every`` accesses, writes a
    snapshot, restores a fresh ``System`` from the file and continues
    there.  A telemetry entry writes its bundle to a temporary directory
    and hashes every file.
    """
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        scratch = Path(tmp)
        if config.telemetry:
            config = dataclasses.replace(
                config, telemetry_dir=str(scratch / "bundle"))
        if slice_every is None:
            result = System(config).run()
        else:
            system = System(dataclasses.replace(
                config, checkpoint_every=slice_every))
            system.start_run()
            index = 0
            while True:
                result = system.continue_run()
                if result is not None:
                    break
                index += 1
                path = scratch / f"slice-{index}.ckpt"
                save_snapshot(system, path)
                system = restore_system(path)
        canonical = json.dumps(run_result_to_dict(result), sort_keys=True)
        digests: Dict[str, Any] = {
            "result_sha256": _sha256(canonical.encode("utf-8"))}
        if config.telemetry:
            bundle = scratch / "bundle"
            digests["bundle_sha256"] = {
                path.name: _sha256(path.read_bytes())
                for path in sorted(bundle.iterdir())}
    return digests


def load_corpus() -> Dict[str, Any]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def entry_config(entry: Dict[str, Any]) -> SimConfig:
    return config_from_dict(entry["config"])


def build_corpus() -> Dict[str, Any]:
    """Run every entry and collect its digests."""
    entries: List[Dict[str, Any]] = []
    for name, spec in corpus_configs().items():
        config, slice_every = spec["config"], spec["slice_every"]
        entry: Dict[str, Any] = {"name": name, "config": config_fields(config)}
        if slice_every is not None:
            entry["slice_every"] = slice_every
        digests = run_entry(config, slice_every)
        entry.update(digests)
        entries.append(entry)
        print(f"{name}: {digests['result_sha256'][:16]}", file=sys.stderr)
    return {"schema": CORPUS_SCHEMA, "compensated_sum": compensated_sum(),
            "entries": entries}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {CORPUS_PATH.name} instead of "
                             "checking it")
    args = parser.parse_args(argv)
    corpus = build_corpus()
    text = json.dumps(corpus, indent=1, sort_keys=True) + "\n"
    if args.write:
        CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
        CORPUS_PATH.write_text(text, encoding="utf-8")
        print(f"wrote {len(corpus['entries'])} entries to {CORPUS_PATH}")
        return 0
    if CORPUS_PATH.read_text(encoding="utf-8") != text:
        print(f"{CORPUS_PATH} is out of date", file=sys.stderr)
        return 1
    print(f"{CORPUS_PATH.name}: {len(corpus['entries'])} entries match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
