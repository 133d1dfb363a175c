"""simlint engine behaviour: SIM100, comment parsing, CLI, repro check.

Also pins cache digests next to their ``CACHE_KEY_EXCLUDED`` registries,
and asserts the whole tree lints clean.  Two sections keep the fixtures
of the retired interprocedural rules, now aimed at the runtime guards
that replaced them: cache-key completeness (``tests/test_cache_key.py``)
and start-method determinism (``tests/test_sweep_parallel.py``).  A
third pins that what a store hands out is the caller's own copy.
"""

import importlib
import sys
import textwrap
import zlib
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import LintOptions, lint_paths, lint_source
from repro.lint.engine import discover_files, extract_suppressions
from repro.store import MemoryStore
from tests.test_cache_key import key_problems
from tests.test_sweep_parallel import outputs_by_start_method


def ids(findings):
    return [f.rule_id for f in findings]


def rule_ids(source, **kwargs):
    return ids(lint_source(source, **kwargs))


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


# --------------------------------------------------------------------------
# SIM100: stale suppressions; tokenizer-backed comment parsing
# --------------------------------------------------------------------------

def test_sim100_reports_unused_suppression():
    findings = lint_source("x = 1   # simlint: ignore[SIM001]\n")
    assert ids(findings) == ["SIM100"]
    assert "matches no finding" in findings[0].message

def test_sim100_not_reported_when_suppression_used():
    assert rule_ids("x = hash('a')   # simlint: ignore[SIM001] -- fixture\n") == []

def test_sim100_can_be_disabled():
    findings = lint_source("x = 1   # simlint: ignore[SIM001]\n",
                           options=LintOptions(report_unused=False))
    assert findings == []

def test_suppression_inside_string_literal_is_inert():
    src = "s = 'x  # simlint: ignore[SIM001]'\ny = hash('a')\n"
    assert extract_suppressions(src) == {}
    assert ids(lint_source(src)) == ["SIM001"]


DIRTY = "x = hash('a')\n"
CLEAN = "import zlib\nx = zlib.crc32(b'a')\n"


# --------------------------------------------------------------------------
# CLI: suppression toggle, repro check
# --------------------------------------------------------------------------

def test_cli_unused_suppression_toggle(tmp_path, capsys):
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1   # simlint: ignore[SIM001]\n")
    assert main(["lint", str(stale)]) == 1
    assert "SIM100" in capsys.readouterr().out
    assert main(["lint", "--no-report-unused-suppressions", str(stale)]) == 0
    capsys.readouterr()

def test_check_skips_missing_tools(tmp_path, capsys, monkeypatch):
    import repro.lint.cli as lint_cli
    monkeypatch.setattr(lint_cli.shutil, "which", lambda name: None)
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN)
    assert main(["check", str(clean)]) == 0
    out = capsys.readouterr().out
    assert out.count("skipped (not installed)") == 2

def test_check_require_tools_fails_when_missing(tmp_path, capsys, monkeypatch):
    import repro.lint.cli as lint_cli
    monkeypatch.setattr(lint_cli.shutil, "which", lambda name: None)
    clean = tmp_path / "clean.py"
    clean.write_text(CLEAN)
    assert main(["check", "--require-tools", str(clean)]) == 1
    capsys.readouterr()

def test_check_fails_on_findings(tmp_path, capsys, monkeypatch):
    import repro.lint.cli as lint_cli
    monkeypatch.setattr(lint_cli.shutil, "which", lambda name: None)
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY)
    assert main(["check", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out
    assert "1 finding(s)" in out


# --------------------------------------------------------------------------
# Cache-key completeness: each field moves the key or is excluded
# --------------------------------------------------------------------------

@dataclass
class _PartlyKeyed:
    a: int = 1
    b: int = 2

    def cache_key(self):
        return (self.a,)


def test_sim012_flags_unkeyed_field():
    problems = key_problems(_PartlyKeyed(), {})
    assert len(problems) == 1
    assert "_PartlyKeyed.b" in problems[0]
    assert "not listed in CACHE_KEY_EXCLUDED" in problems[0]

def test_sim012_registry_entry_excuses_field():
    assert key_problems(_PartlyKeyed(), {"b": "observe-only knob"}) == []

def test_sim012_stale_registry_entry():
    problems = key_problems(_PartlyKeyed(),
                            {"b": "observe-only", "zz": "left behind"})
    assert problems == ["stale CACHE_KEY_EXCLUDED entry 'zz'"]

def test_sim012_contradictory_registry_entry():
    problems = key_problems(_PartlyKeyed(),
                            {"a": "wrong", "b": "observe-only"})
    assert len(problems) == 1
    assert "_PartlyKeyed.a: key moved" in problems[0]

def test_sim012_reads_through_properties():
    # cache_key() touches ``policy`` only via the ``policy_name``
    # property - perturbing the field must still move the key.
    @dataclass
    class Config:
        policy: str = "Norm"

        @property
        def policy_name(self):
            return self.policy

        def cache_key(self):
            return (self.policy_name,)

    assert key_problems(Config(), {}) == []

def test_sim012_plain_class_without_key_is_exempt():
    @dataclass
    class Stats:
        hits: int = 0
        misses: int = 0

    assert key_problems(Stats(), {}) == []


# --------------------------------------------------------------------------
# Start-method determinism: a hash-seeded key differs between spawn and fork
# --------------------------------------------------------------------------

KEY_ITEMS = [f"bank{i}" for i in range(32)]


def _hash_key(name):
    return hash(name)   # simlint: ignore[SIM001] -- nondeterminism fixture


def _set_order_key(items):
    return tuple(set(items))


def _sorted_set_key(items):
    return tuple(sorted(set(items)))


def _crc_mix(name):
    return zlib.crc32(name.encode())


def _crc_key(name):
    return _crc_mix(name)


def _key_of(payload):
    return payload


def _hashed_save(name):
    return _key_of(hash(name))   # simlint: ignore[SIM001] -- nondeterminism fixture


def test_sim011_direct_taint_in_sink(monkeypatch):
    spawned, forked = outputs_by_start_method(monkeypatch, _hash_key, "lbm")
    assert spawned != forked

def test_sim011_interprocedural_witness_across_modules(tmp_path, monkeypatch):
    write_tree(tmp_path, {
        "keyfixture/__init__.py": "",
        "keyfixture/util.py": """\
            def _mix(name):
                return hash(name) & 0x7FFFFFFF
        """,
        "keyfixture/config.py": """\
            from keyfixture.util import _mix

            def cache_key(cfg):
                return _mix(cfg)
        """,
    })
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        cache_key = importlib.import_module("keyfixture.config").cache_key
        spawned, forked = outputs_by_start_method(monkeypatch, cache_key,
                                                  "lbm")
    finally:
        for name in ("keyfixture.config", "keyfixture.util", "keyfixture"):
            sys.modules.pop(name, None)
    assert spawned != forked

def test_sim011_tainted_argument_into_sink(monkeypatch):
    spawned, forked = outputs_by_start_method(monkeypatch, _hashed_save,
                                              "lbm")
    assert spawned != forked

def test_sim011_set_order_reaches_sink(monkeypatch):
    spawned, forked = outputs_by_start_method(monkeypatch, _set_order_key,
                                              KEY_ITEMS)
    assert spawned != forked
    assert sorted(spawned) == sorted(forked)

def test_sim011_sorted_sanitizes_set_order(monkeypatch):
    spawned, forked = outputs_by_start_method(monkeypatch, _sorted_set_key,
                                              KEY_ITEMS)
    assert spawned == forked

def test_sim011_clean_helpers_are_clean(monkeypatch):
    spawned, forked = outputs_by_start_method(monkeypatch, _crc_key, "lbm")
    assert spawned == forked == _crc_key("lbm")


# --------------------------------------------------------------------------
# Store: what a store hands out is the caller's own copy
# --------------------------------------------------------------------------

STORE_DIGEST = "ab" * 12


def test_sim013_unmarked_class_is_exempt():
    # What a store hands out is the caller's own copy: changing it needs
    # no lock and never reaches the store.
    store = MemoryStore()
    store.put(STORE_DIGEST, b"data")
    found = store.scan()
    found.clear()
    assert [e.digest for e in store.scan()] == [STORE_DIGEST]


# --------------------------------------------------------------------------
# Digest stability
# --------------------------------------------------------------------------

def test_cache_digests_unchanged_by_locking():
    # Pinned before any shared object grew a lock (re-pinned once when the
    # key gained MODEL_VERSION): the store's lock must never move a cache
    # key.
    from repro.sim.config import SimConfig
    small = SimConfig("hmmer", policy="Norm").scaled(0.05)
    assert small.cache_digest() == "6b87838e1578c2ca43e74a3c"
    assert SimConfig("lbm").cache_digest() == "91af9deb1bc98a2360aebfba"

def test_faults_digest_unchanged_by_registry():
    from repro.faults.config import FaultConfig
    from repro.sim.config import SimConfig
    config = SimConfig("zeusmp", policy="BE-Mellow+SC", faults=FaultConfig())
    assert config.cache_digest() == "662a08f29d17e495fbbb4a94"

def test_job_spec_digest_unchanged():
    # The scaled run job spec, given on the command line, resolves to the
    # digest it always had, so entries cached under it stay readable.
    from repro.cli import _config_from_args, build_parser
    args = build_parser().parse_args(
        ["run", "--workload", "lbm", "--policy", "Norm", "--scale", "0.05"])
    config = _config_from_args(args, args.workload, args.policy)
    assert config.cache_digest() == "c52eb7b85079feeb82bae904"


# --------------------------------------------------------------------------
# The whole tree lints clean
# --------------------------------------------------------------------------

def test_whole_tree_is_lint_clean():
    paths = ["src", "tests", "benchmarks"]
    assert lint_paths(paths) == []
    assert len(discover_files(Path(p) for p in paths)) > 100
