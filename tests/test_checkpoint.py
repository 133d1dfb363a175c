"""Checkpoint equivalence gate: snapshot -> restore -> continue must be
bit-identical to running straight through.

Every differential test runs the same config twice - once uninterrupted, once sliced into
checkpointed segments where each pause round-trips through an actual
snapshot file and a freshly constructed ``System`` - and requires
byte-for-byte equality of the serialized results (and, where enabled,
of the full telemetry bundle).  Property tests push the boundary to
arbitrary access counts and pin double round-trip idempotence: a
restored system must re-capture to the identical snapshot bytes.

Corruption tests pin the failure mode: any truncation or bit flip in a
snapshot file surfaces as a structured
:class:`~repro.checkpoint.CheckpointCorruptionError`, never a silently
wrong resume.  Cache-key tests pin that the checkpoint knobs stay
outside :meth:`SimConfig.cache_key` (sliced and straight runs share
cache entries precisely *because* this suite proves them bit-identical).
"""
from __future__ import annotations

import base64
import dataclasses
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import weakref
import zlib
from array import array
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.export import run_result_to_dict
from repro.cache.lru import EAGER_CLEANED
from repro.checkpoint import (CheckpointCorruptionError, CheckpointError,
                              CheckpointUnsupportedError, capture_state,
                              config_from_dict, config_to_dict,
                              load_snapshot, restore_system, save_snapshot,
                              snapshot_bytes)
from repro.checkpoint.codec import (_from_id_deltas, _from_xor_planes,
                                    _id_deltas, _xor_planes, pack_floats,
                                    pack_ints)
from repro.checkpoint.snapshot import SNAPSHOT_MAGIC, _encode_snapshot
from repro.cli import main
from repro.faults import FaultConfig
from repro.sim.config import CACHE_KEY_EXCLUDED, SimConfig
from repro.sim.system import System
from repro.telemetry.tracer import _CHUNK_RECORDS

POLICIES = ["Norm", "BE-Mellow+SC", "Slow+SC"]
WORKLOADS = ["hmmer", "lbm"]
SEEDS = [3, 11]

FAULTS = FaultConfig(wear_acceleration=5e6, spare_lines_per_bank=8,
                     max_write_retries=1)


def _straight_json(config: SimConfig) -> str:
    return json.dumps(run_result_to_dict(System(config).run()),
                      sort_keys=True)


def _sliced_json(config: SimConfig, every: int, tmp_path: Path) -> str:
    """Run sliced: every pause writes a snapshot, a *fresh* System is
    restored from the file, and the run continues there."""
    system = System(dataclasses.replace(config, checkpoint_every=every))
    system.start_run()
    index = 0
    while True:
        result = system.continue_run()
        if result is not None:
            return json.dumps(run_result_to_dict(result), sort_keys=True)
        index += 1
        path = tmp_path / f"slice-{index}.ckpt"
        save_snapshot(system, path)
        system = restore_system(path)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("policy", POLICIES)
def test_sliced_bit_identity(tmp_path: Path, workload: str, policy: str,
                             seed: int) -> None:
    """Policy x workload x seed differential matrix."""
    config = SimConfig(workload=workload, policy=policy,
                       seed=seed).scaled(0.02)
    assert _sliced_json(config, 900, tmp_path) == _straight_json(config)


def test_sliced_crosses_warmup_boundary(tmp_path: Path) -> None:
    """Small slices force pauses inside the timed warmup window too."""
    config = SimConfig(workload="hmmer", policy="BE-Mellow+SC",
                       seed=5).scaled(0.02)
    assert _sliced_json(config, 300, tmp_path) == _straight_json(config)


@pytest.mark.parametrize("workload", ["zeusmp", "lbm"])
def test_sliced_bit_identity_with_faults(tmp_path: Path,
                                         workload: str) -> None:
    """Fault injector RNG streams and per-line endurance state must
    survive the round trip exactly."""
    config = SimConfig(workload=workload, policy="BE-Mellow+SC", seed=7,
                       faults=FAULTS).scaled(0.02)
    assert _sliced_json(config, 800, tmp_path) == _straight_json(config)


def test_sliced_bit_identity_dram_buffer_and_fnw(tmp_path: Path) -> None:
    """Optional subsystems with their own ordered state (DRAM buffer LRU
    order, Flip-N-Write RNG) ride along."""
    config = SimConfig(workload="lbm", policy="Norm", seed=9,
                       dram_buffer_entries=16,
                       flip_n_write=True).scaled(0.02)
    assert _sliced_json(config, 800, tmp_path) == _straight_json(config)


def _assert_bundles_equal_sliced(tmp_path: Path, every: int,
                                 **fields) -> None:
    """A traced run's whole bundle is byte-identical sliced and straight."""
    bundles = {}
    for mode in ("straight", "sliced"):
        out = tmp_path / f"telemetry-{mode}"
        config = SimConfig(workload="lbm", policy="BE-Mellow+SC", seed=11,
                           telemetry=True, telemetry_dir=str(out),
                           **fields).scaled(0.02)
        if mode == "straight":
            System(config).run()
        else:
            _sliced_json(config, every, tmp_path)
        bundles[mode] = {path.name: path.read_bytes()
                         for path in sorted(out.iterdir())}
    assert bundles["straight"].keys() == bundles["sliced"].keys()
    for name, payload in bundles["straight"].items():
        assert payload == bundles["sliced"][name], f"{name} diverged"


def test_telemetry_bundle_byte_identity_sliced(tmp_path: Path) -> None:
    """The full telemetry bundle must be byte-identical between a sliced
    and a straight run - epochs, trace ring, heatmaps, manifest."""
    _assert_bundles_equal_sliced(tmp_path, 900)


def test_partly_evicted_ring_round_trips(tmp_path: Path,
                                         monkeypatch) -> None:
    """A ring whose capacity is no multiple of the tracer's chunk, paused
    after it has evicted whole chunks and while records are staged, goes
    through the snapshot's ring columns and still finishes byte-equal."""
    capacity = 3001
    assert capacity % _CHUNK_RECORDS
    seen = []
    save = save_snapshot

    def save_and_look(system, path):
        tracer = system.telemetry.tracer
        seen.append((tracer.dropped > 0, bool(tracer._staged)))
        return save(system, path)

    monkeypatch.setattr(sys.modules[__name__], "save_snapshot",
                        save_and_look)
    _assert_bundles_equal_sliced(tmp_path, 700,
                                 telemetry_trace_capacity=capacity)
    assert (True, True) in seen, seen


def test_sliced_bit_identity_sanitizer_armed(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path) -> None:
    """REPRO_SANITIZE=1 arms the runtime invariant checks; the restored
    run must pass them and still match bit-for-bit."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    config = SimConfig(workload="hmmer", policy="Slow+SC", seed=3,
                       sanitize=True).scaled(0.02)
    assert _sliced_json(config, 700, tmp_path) == _straight_json(config)


def test_sliced_bit_identity_faults_sanitized(tmp_path: Path) -> None:
    """Fault injection with the sanitizer armed runs on the same
    controller spine as every other config; slicing it through snapshot
    files must not move a bit, and the restored run must pass every
    invariant check."""
    config = SimConfig(workload="zeusmp", policy="BE-Mellow+SC", seed=7,
                       sanitize=True, faults=FAULTS).scaled(0.02)
    assert _sliced_json(config, 800, tmp_path) == _straight_json(config)


def _nested_llc_rows(llc: dict) -> None:
    """Rewrite the columnar LLC section as the nested per-line ``sets``
    rows that state schemas 1 and 2 used."""
    sets, start = [], 0
    for size in llc.pop("lines_per_set"):
        end = start + size
        sets.append([[tag, bool(flag & 1), flag > 1, touch]
                     for tag, flag, touch in zip(llc["tags"][start:end],
                                                 llc["flags"][start:end],
                                                 llc["last_touch"][start:end])])
        start = end
    for column in ("tags", "flags", "last_touch"):
        del llc[column]
    llc["sets"] = sets


def _unpacked_columns(section: dict) -> None:
    """Turn a section's packed columns back into the JSON lists state
    schema 3 held."""
    for name, value in section.items():
        if isinstance(value, array):
            section[name] = value.tolist()


def _listed_rngs(state: dict) -> None:
    """Rewrite every RNG state as the ``[version, words, gauss]`` JSON
    list that state schemas 1-4 held."""
    for section in ("trace", "llc", "faults", "flip_n_write"):
        if state[section] is not None and "rng" in state[section]:
            rng = state[section]["rng"]
            state[section]["rng"] = [rng["version"], rng["internal"].tolist(),
                                     rng["gauss_next"]]


@pytest.mark.parametrize("schema", [1, 2, 3, 4, 5])
def test_old_state_schema_refused(tmp_path: Path, schema: int) -> None:
    """Schema 1 carried a controller-mode flag and event kinds this build
    no longer has; schemas 1 and 2 stored the LLC as nested per-line
    rows; schema 3 held the LLC columns and the fault lines as JSON;
    schemas 1-4 held each RNG state and the trace ring as JSON lists;
    schema 5 held the ring's numeric fields raw.  There is no reader
    for any of them: restoring one fails loudly instead of being
    misread."""
    def downgrade(state: dict) -> None:
        state["state_schema"] = schema
        if schema == 5:
            return
        _listed_rngs(state)
        if schema == 1:
            state["fastpath"] = True
        if schema == 3:
            _unpacked_columns(state["llc"])
        elif schema < 3:
            _nested_llc_rows(state["llc"])

    old = _edited_snapshot(tmp_path, downgrade)
    with pytest.raises(CheckpointError, match=f"state schema {schema}"):
        restore_system(old)


@pytest.mark.parametrize("section, edit", [
    ("llc", lambda state: state.pop("llc")),
    ("controller", lambda state: state["controller"].update(faw=5)),
    ("core", lambda state: state["core"].pop("_finished")),
    ("events", lambda state: state["events"].update(heap=[["x"]])),
], ids=["missing-section", "wrong-type", "missing-field", "short-row"])
def test_malformed_state_is_a_checkpoint_error(tmp_path: Path, section: str,
                                               edit) -> None:
    """A digest-valid snapshot whose state lacks a section or holds a
    field of the wrong shape is refused with a CheckpointError naming the
    section, never a raw KeyError / TypeError from deep in the restore."""
    bad = _edited_snapshot(tmp_path, edit)
    with pytest.raises(CheckpointError, match=repr(section)):
        restore_system(bad)


def test_resume_malformed_state_is_a_clean_cli_error(tmp_path: Path,
                                                     capsys) -> None:
    """``repro resume`` reports a malformed state as a one-line error
    (exit 1), not a traceback."""
    bad = _edited_snapshot(tmp_path, lambda state: state.pop("llc"))
    assert main(["resume", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'llc'" in err
    assert "Traceback" not in err


def _bump_row_retired(state: dict) -> None:
    state["controller"]["banks"][0][3] += 1


def _bump_injector_retired(state: dict) -> None:
    state["faults"]["retired_per_bank"][0] += 1


@pytest.mark.parametrize("faults, edit, message", [
    (None, _bump_row_retired,
     "disagree with the fault injector's retired lines"),
    (FAULTS, _bump_injector_retired,
     "disagree with the fault injector's retired lines"),
    (None, lambda state: state["controller"]["banks"].pop(),
     "15 controller bank rows for 16 banks"),
], ids=["retired-without-faults", "retired-vs-faults", "bank-count"])
def test_bank_rows_checked_against_one_count(tmp_path: Path, faults, edit,
                                             message: str) -> None:
    """Lines retired per bank are counted once, by the fault injector;
    the controller's bank rows repeat that count, so rows that disagree
    with it (or with the bank count) are refused, not adopted."""
    bad = _edited_snapshot(tmp_path, edit, faults)
    with pytest.raises(CheckpointError, match=message):
        restore_system(bad)


def _resized(edit, *keys):
    """An edit that applies ``edit`` to the list or column at ``keys``."""
    def apply(state: dict) -> None:
        target = state
        for key in keys:
            target = target[key]
        edit(target)
    return apply


def _short(column) -> None:
    column.pop()


def _long(column) -> None:
    column.append(column[0])


_LENGTH_CASES = [
    (("llc", "set_access_counts"), _short, None),
    (("llc", "profiler", "hit_counters"), _long, None),
    (("llc", "deadblock", "buckets"), _short, None),
    (("controller", "bank_busy_until"), _short, None),
    (("controller", "bank_open_row"), _long, None),
    (("controller", "bank_in_flight"), _short, None),
    (("faults", "spares_left"), _short, FAULTS),
    (("faults", "retired_per_bank"), _long, FAULTS),
    (("faults", "limits"), _short, FAULTS),
    (("wear", "records"), _short, None),
    # A System's wear tracker keeps no per-block damage: the list is
    # empty, so the one-too-many row is an empty one.
    (("wear", "block_damage"), lambda rows: rows.append([]), None),
]


@pytest.mark.parametrize("keys, edit, faults", _LENGTH_CASES,
                         ids=[".".join(case[0]) for case in _LENGTH_CASES])
def test_column_lengths_checked(tmp_path: Path, keys, edit, faults) -> None:
    """Every list restored in place, or zipped against a live one, must
    have the live length: one entry too few or too many is refused with
    a CheckpointError naming the section and the column, not adopted or
    silently truncated."""
    bad = _edited_snapshot(tmp_path, _resized(edit, *keys), faults)
    with pytest.raises(CheckpointError,
                       match=rf"'{keys[0]}'.*{keys[-1]} has \d+ entries, "
                             rf"expected \d+"):
        restore_system(bad)


_UINT64 = st.integers(min_value=0, max_value=2**64 - 1)


def _narrowest(values: list) -> str:
    high = max(values, default=0)
    return ("B" if high < 2**8 else "H" if high < 2**16
            else "I" if high < 2**32 else "Q")


@settings(max_examples=40, deadline=None)
@given(ints=st.lists(_UINT64, max_size=40),
       floats=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       max_size=40))
def test_packed_columns_round_trip(tmp_path_factory, ints: list,
                                   floats: list) -> None:
    """Any unsigned 64-bit int list and any finite float list come back
    from a snapshot file exactly, the ints in the narrowest typecode."""
    packed_ints = pack_ints(ints, "ints")
    assert packed_ints.typecode == _narrowest(ints)
    packed_floats = pack_floats(floats, "floats")
    path = tmp_path_factory.mktemp("packed") / "columns.ckpt"
    path.write_bytes(_encode_snapshot(_PROP_CONFIG, {
        "section": {"ints": packed_ints, "floats": packed_floats}}))
    _, state = load_snapshot(path)
    ints_back, floats_back = state["section"]["ints"], state["section"]["floats"]
    assert ints_back.typecode == packed_ints.typecode
    assert ints_back.tolist() == ints
    assert floats_back.tolist() == floats
    assert floats_back.tobytes() == packed_floats.tobytes()


@settings(max_examples=40, deadline=None)
@given(times=st.lists(st.floats(), max_size=40),
       ids=st.lists(st.one_of(st.just(-1), st.integers(0, 2**40)),
                    max_size=40))
@example(times=[0.0, -0.0, float("inf"), float("nan"), 5e-324, 1.5, 1.5],
         ids=[-1, 0, 7, -1, 3, 2**40, 0])
def test_ring_transforms_are_bit_exact(tmp_path_factory, times: list,
                                       ids: list) -> None:
    """The ring's ``t_ns`` XOR planes and ``req_id`` deltas come back
    from a snapshot file exactly: every float bit pattern (signed zero,
    NaN payloads, subnormals) and every id, -1 included."""
    column = array("d", times)
    planes, deltas = _xor_planes(column), _id_deltas(ids)
    path = tmp_path_factory.mktemp("ring") / "columns.ckpt"
    path.write_bytes(_encode_snapshot(_PROP_CONFIG, {
        "section": {"planes": planes, "deltas": deltas}}))
    _, state = load_snapshot(path)
    assert (_from_xor_planes(state["section"]["planes"]).tobytes()
            == column.tobytes())
    assert _from_id_deltas(state["section"]["deltas"]) == ids


@given(ints=st.lists(_UINT64, max_size=20),
       bad=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
       position=st.integers(min_value=0, max_value=20))
def test_pack_ints_refuses_out_of_range(ints: list, bad: int,
                                        position: int) -> None:
    """A value below 0 or at or above 2**64 is refused, never truncated."""
    ints.insert(position, bad)
    with pytest.raises(CheckpointError, match="column 'ints'"):
        pack_ints(ints, "ints")


def test_capture_refuses_an_unpackable_column() -> None:
    system = _paused_system()
    system.llc.cache._tag_sets[0][0] = -1
    with pytest.raises(CheckpointError, match="column 'tags'"):
        capture_state(system)


def test_resume_applies_checkpoint_overrides(tmp_path: Path) -> None:
    """``repro resume`` restores through ``restore_system`` with its
    slicing flags applied to the embedded config: the rest of the run
    writes its snapshots at the new cadence into the new directory and
    still ends at the straight run's result; a cadence the config
    refuses is a clean CLI error."""
    snapshot = _one_snapshot(tmp_path)
    config, state = load_snapshot(snapshot)
    assert config.checkpoint_every == 900 and config.checkpoint_dir is None
    more, out = tmp_path / "more", tmp_path / "resumed.json"
    assert main(["resume", str(snapshot), "--checkpoint-every", "1400",
                 "--checkpoint-dir", str(more), "--output", str(out)]) == 0
    paused_at = sorted(int(path.stem.split("-")[1])
                       for path in more.iterdir())
    assert paused_at[0] == state["core"]["accesses_processed"] + 1400
    resumed = json.loads(out.read_text())["result"]
    assert (json.dumps(resumed, sort_keys=True) == _straight_json(
        dataclasses.replace(config, checkpoint_every=None)))
    assert main(["resume", str(snapshot), "--checkpoint-every", "0"]) == 1


def _ctrl_completion_row(state: dict) -> list:
    return next(row[2] for row in state["events"]["heap"]
                if row[2][0] in ("ctrl.read", "ctrl.write"))


def _shift_completion_bank(state: dict) -> None:
    desc = _ctrl_completion_row(state)
    desc[1] = (desc[1] + 1) % 16


def _mark_dependent(state: dict, read_ids: list) -> None:
    """Give the first ``len(read_ids)`` request rows dependent-read
    callbacks naming ``read_ids``."""
    for row, read_id in zip(state["requests"], read_ids):
        row[6] = ["dep", read_id]


def _two_dependent_reads(state: dict) -> None:
    state["core"]["_wait_read_id"] = 7
    _mark_dependent(state, [7, 7])


def _dependent_read_not_awaited(state: dict) -> None:
    state["core"]["_wait_read_id"] = 7
    _mark_dependent(state, [8])


@pytest.mark.parametrize("edit, message", [
    (_shift_completion_bank, "names bank .* but its operation is on bank"),
    (_two_dependent_reads, r"dependent reads \[7, 7\]"),
    (_dependent_read_not_awaited,
     r"dependent reads \[8\] but the core waits on read 7"),
], ids=["completion-bank", "two-dependent-reads", "dependent-read-id"])
def test_rebound_callbacks_checked(tmp_path: Path, edit, message: str
                                   ) -> None:
    """A completion event finds its bank from its operation, and a
    dependent read's callback finds its read id from the core, so a
    snapshot that disagrees with either is refused, not rebound."""
    def checked_edit(state: dict) -> None:
        assert _ctrl_completion_row(state) and len(state["requests"]) >= 2
        edit(state)

    bad = _edited_snapshot(tmp_path, checked_edit)
    with pytest.raises(CheckpointError, match=message):
        restore_system(bad)


@pytest.mark.parametrize("add_foreign, message", [
    (lambda system: system.events.schedule_in(1.0, lambda _: None),
     "event callback"),
    (lambda system: system.controller.submit_read(
        0, lambda _completion_ns: None), "request callback"),
], ids=["event", "request"])
def test_capture_refuses_foreign_callbacks(add_foreign, message: str
                                           ) -> None:
    """Only methods the codec's tables name can be captured: an event or
    a read completion that calls anything else is refused."""
    system = _paused_system()
    add_foreign(system)
    with pytest.raises(CheckpointUnsupportedError, match=message):
        capture_state(system)


def _overfill_set_0(llc: dict) -> int:
    """Give set 0 the lines of sets 0 and 1 (column lengths unchanged),
    more than the default 16-way LLC holds."""
    sizes = llc["lines_per_set"]
    sizes[0], sizes[1] = sizes[0] + sizes[1], 0
    assert sizes[0] > 16
    return sizes[0]


def _repeat_a_tag_in_set_0(llc: dict) -> int:
    llc["tags"][1] = llc["tags"][0]
    return llc["lines_per_set"][0] - 1


@pytest.mark.parametrize("edit, message", [
    (lambda llc: llc["tags"].pop(), "column lengths .* disagree"),
    (_overfill_set_0, "LLC set 0 holds {} lines"),
    (lambda llc: llc["flags"].__setitem__(0, 4), r"flags outside 0-3: \[4\]"),
    (lambda llc: llc.update(flags=[-1, *llc["flags"][1:]]),
     r"flags outside 0-3: \[-1\]"),
    (_repeat_a_tag_in_set_0, "LLC set 0 holds .* with {} distinct tags"),
], ids=["column-lengths", "over-assoc", "flags-high", "flags-negative",
        "repeated-tag"])
def test_llc_columns_validated(tmp_path: Path, edit, message: str) -> None:
    """The LLC columns are outside input: lengths that disagree with the
    per-set counts, a set fuller than the associativity, flags outside
    0-3 and a set holding one tag twice are each refused.  (A packed
    column cannot hold -1, but restore also takes a column as a JSON
    list, so the negative flag arrives as one.)"""
    expected: list = []

    def corrupt(state: dict) -> None:
        llc = state["llc"]
        assert llc["lines_per_set"][0] >= 2 and llc["lines_per_set"][1]
        expected.append(edit(llc))

    bad = _edited_snapshot(tmp_path, corrupt)
    with pytest.raises(CheckpointError, match=message.format(*expected)):
        restore_system(bad)


def test_llc_round_trip_restores_lines_and_tag_mirrors(tmp_path: Path
                                                        ) -> None:
    """Every set's tag, flag and last-touch columns (MRU-first) and the
    membership sets come back exactly, through partly filled sets and
    eager-cleaned lines (a half-occupancy warm-up leaves sets partly
    filled)."""
    config = dataclasses.replace(
        SimConfig(workload="zeusmp", policy="BE-Mellow+SC",
                  seed=3).scaled(0.1),
        functional_warmup_occupancy=0.5, checkpoint_every=5000)
    system = System(config)
    system.start_run()
    assert system.continue_run() is None
    original = system.llc.cache
    assert any(len(tags) < original.assoc for tags in original._tag_sets)
    assert any(flag & EAGER_CLEANED
               for flags in original._flags for flag in flags)
    restored = restore_system(
        save_snapshot(system, tmp_path / "llc.ckpt")).llc.cache

    assert restored._tag_sets == original._tag_sets
    assert restored._flags == original._flags
    assert restored._touches == original._touches
    assert restored.set_access_counts == original.set_access_counts


#: A state captured by the build before the LLC became columnar:
#: zeusmp under BE-Mellow+SC on a 16 KB 4-way LLC with a DRAM write
#: buffer, paused 4000 accesses into the measured window with
#: eager-cleaned and dirty lines resident.  It was written as state
#: schema 3, rewritten in the schema-4 file layout (columns packed,
#: nothing else changed) when that layout replaced the JSON envelope,
#: and rewritten as schema 5 (the RNG words packed, nothing else
#: changed) when the RNG states became columns, then as schema 6 (the
#: trace ring's encoding changed; this state has no ring, so nothing
#: else changed).
EARLIER_BUILD_SNAPSHOT = (Path(__file__).parent / "data"
                          / "snapshot_state6_small_llc.ckpt")


def test_snapshot_from_an_earlier_build_resumes_byte_equal(
        monkeypatch: pytest.MonkeyPatch) -> None:
    """Snapshots outlive the build that wrote them: this one restores,
    re-captures to its own state, and finishes byte-equal to a straight
    run of its embedded config.  (States are compared through one
    encoding, not against the file's bytes: the compressed stream may
    differ between zlib versions.)"""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    config, state = load_snapshot(EARLIER_BUILD_SNAPSHOT)
    assert state["state_schema"] == 6
    assert any(flag & EAGER_CLEANED for flag in state["llc"]["flags"])
    restored = restore_system(EARLIER_BUILD_SNAPSHOT)
    assert (_encode_snapshot(config, capture_state(restored))
            == _encode_snapshot(config, state))
    resumed = json.dumps(run_result_to_dict(restored.finish_run()),
                         sort_keys=True)
    assert resumed == _straight_json(
        dataclasses.replace(config, checkpoint_every=None))


def test_run_with_checkpoint_dir_writes_snapshots(tmp_path: Path) -> None:
    """checkpoint_dir makes run() drop chronologically sorting snapshot
    files at every pause without changing the result."""
    out = tmp_path / "snaps"
    config = SimConfig(workload="hmmer", policy="Norm", seed=3).scaled(0.02)
    sliced = dataclasses.replace(config, checkpoint_every=900,
                                 checkpoint_dir=str(out))
    result = json.dumps(run_result_to_dict(System(sliced).run()),
                        sort_keys=True)
    assert result == _straight_json(config)
    names = sorted(path.name for path in out.iterdir())
    assert names, "no snapshots written"
    assert all(name.startswith("checkpoint-") and name.endswith(".ckpt")
               for name in names)
    # Each snapshot must itself be loadable and resumable to the same end.
    resumed = restore_system(out / names[-1]).finish_run()
    assert json.dumps(run_result_to_dict(resumed),
                      sort_keys=True) == result


def test_pause_without_dir_is_invisible(tmp_path: Path) -> None:
    """checkpoint_every alone pauses and continues; nothing is written
    and the result is unchanged."""
    config = SimConfig(workload="hmmer", policy="Norm", seed=4).scaled(0.02)
    sliced = dataclasses.replace(config, checkpoint_every=500)
    assert json.dumps(run_result_to_dict(System(sliced).run()),
                      sort_keys=True) == _straight_json(config)


def test_release_frees_a_paused_system_without_the_collector() -> None:
    """Snapshot capture and restore pause the cyclic collector, so a
    caller that drops a paused system must not leave it for the
    collector: ``release`` lets reference counting alone reclaim it."""
    config = SimConfig(workload="zeusmp", policy="Slow+SC", seed=1,
                       faults=FAULTS).scaled(0.01)
    system = System(dataclasses.replace(config, checkpoint_every=(
        config.warmup_accesses + config.measure_accesses) // 3))
    system.start_run()
    assert system.continue_run() is None
    alive = weakref.ref(system)
    gc.disable()
    try:
        system.release()
        del system
        assert alive() is None
    finally:
        gc.enable()


_CHILD_SCRIPT = """
import sys
from repro.experiments.faults import default_fault_config
from repro.sim.config import SimConfig
from repro.sim.system import System

config = SimConfig(workload="zeusmp", policy="Slow+SC", seed=2,
                   faults=default_fault_config(),
                   checkpoint_every=400,
                   checkpoint_dir=sys.argv[1]).scaled(0.01)
System(config).run()
"""


def test_sigterm_resume_equals_uninterrupted(tmp_path: Path) -> None:
    """Kill a checkpointing run with SIGTERM mid-flight, resume from the
    newest snapshot, and require the exact uninterrupted result.
    Atomic snapshot writes guarantee the newest file is complete even
    though the process died without warning."""
    snap_dir = tmp_path / "snaps"
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(snap_dir)],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    try:
        deadline = time.monotonic() + 120.0   # simlint: ignore[SIM003] -- real child wait
        while time.monotonic() < deadline:   # simlint: ignore[SIM003] -- real child wait
            if snap_dir.is_dir() and any(snap_dir.glob("*.ckpt")):
                break
            if child.poll() is not None:
                break
            time.sleep(0.02)
        else:
            pytest.fail("child never wrote a snapshot")
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=60)

    snapshots = sorted(snap_dir.glob("*.ckpt"))
    assert snapshots, "no snapshot survived the SIGTERM"
    resumed = restore_system(snapshots[-1]).finish_run()
    straight = SimConfig(workload="zeusmp", policy="Slow+SC", seed=2,
                         faults=FAULTS).scaled(0.01)
    assert (json.dumps(run_result_to_dict(resumed), sort_keys=True)
            == _straight_json(straight))


# ---------------------------------------------------------------------------
# Property tests: arbitrary boundaries and round-trip idempotence.
# ---------------------------------------------------------------------------

_PROP_CONFIG = SimConfig(workload="hmmer", policy="BE-Mellow+SC",
                         seed=13).scaled(0.02)
_PROP_STRAIGHT: dict = {}


def _prop_straight_json() -> str:
    if "json" not in _PROP_STRAIGHT:
        _PROP_STRAIGHT["json"] = _straight_json(_PROP_CONFIG)
    return _PROP_STRAIGHT["json"]


@settings(max_examples=8)
@given(every=st.integers(min_value=150, max_value=4000))
def test_checkpoint_at_arbitrary_boundary(tmp_path_factory, every: int
                                          ) -> None:
    """Wherever the pause lands - warmup, measurement, right before the
    end - the sliced run matches the straight one."""
    tmp = tmp_path_factory.mktemp("boundary")
    assert _sliced_json(_PROP_CONFIG, every, tmp) == _prop_straight_json()


@settings(max_examples=6)
@given(every=st.integers(min_value=200,
                         max_value=_PROP_CONFIG.measure_accesses - 1))
@example(every=_PROP_CONFIG.measure_accesses - 1)
def test_double_round_trip_idempotent(tmp_path_factory, every: int) -> None:
    """restore(snapshot) must re-capture to the identical bytes: the
    rebound callbacks and identity tables are shape-exact.

    ``every`` stays below the measured window so the first pause always
    lands before the run completes."""
    tmp = tmp_path_factory.mktemp("roundtrip")
    system = System(dataclasses.replace(_PROP_CONFIG,
                                        checkpoint_every=every))
    system.start_run()
    assert system.continue_run() is None
    path = save_snapshot(system, tmp / "first.ckpt")
    first = path.read_bytes()
    assert snapshot_bytes(restore_system(path)) == first


@settings(max_examples=20)
@given(st.builds(
    SimConfig,
    workload=st.sampled_from(["hmmer", "lbm", "zeusmp", "gups"]),
    policy=st.sampled_from(["Norm", "Slow+SC", "BE-Mellow+SC", "E-Norm"]),
    seed=st.integers(min_value=1, max_value=10_000),
    slow_factor=st.sampled_from([2.0, 3.0]),
    num_banks=st.sampled_from([4, 8]),
    checkpoint_every=st.one_of(st.none(),
                               st.integers(min_value=1, max_value=10**6)),
    faults=st.one_of(st.none(), st.builds(
        FaultConfig,
        wear_acceleration=st.sampled_from([1e6, 5e6]),
        spare_lines_per_bank=st.integers(min_value=0, max_value=8),
        max_write_retries=st.integers(min_value=0, max_value=2),
    )),
))
def test_config_codec_round_trip(config: SimConfig) -> None:
    """config -> dict -> JSON -> dict -> config is the identity."""
    data = json.loads(json.dumps(config_to_dict(config), sort_keys=True))
    assert config_from_dict(data) == config


# ---------------------------------------------------------------------------
# Corruption: damaged snapshots fail loudly with a structured error.
# ---------------------------------------------------------------------------


def _paused_system(faults: Optional[FaultConfig] = None) -> System:
    config = SimConfig(workload="hmmer", policy="Norm", seed=3,
                       checkpoint_every=900, faults=faults).scaled(0.02)
    system = System(config)
    system.start_run()
    assert system.continue_run() is None
    return system


def _one_snapshot(tmp_path: Path,
                  faults: Optional[FaultConfig] = None) -> Path:
    return save_snapshot(_paused_system(faults), tmp_path / "good.ckpt")


def _edited_snapshot(tmp_path: Path, edit,
                     faults: Optional[FaultConfig] = None) -> Path:
    """A digest-valid snapshot whose state ``edit`` changed in place."""
    config, state = load_snapshot(_one_snapshot(tmp_path, faults))
    edit(state)
    path = tmp_path / "edited.ckpt"
    path.write_bytes(_encode_snapshot(config, state))
    return path


def test_corrupt_truncated(tmp_path: Path) -> None:
    path = _one_snapshot(tmp_path)
    raw = path.read_bytes()
    for cut in (0, 1, len(raw) // 2, len(raw) - 2):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            load_snapshot(path)
        assert excinfo.value.path == path
        assert excinfo.value.reason


def _header_span(raw: bytes) -> tuple:
    """Where the JSON header line of a snapshot starts and ends."""
    start = len(SNAPSHOT_MAGIC)
    return start, raw.index(b"\n", start)


def test_corrupt_trailing_bytes(tmp_path: Path) -> None:
    path = _one_snapshot(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointCorruptionError, match="follow the payload"):
        load_snapshot(path)


def test_corrupt_bit_flip(tmp_path: Path) -> None:
    """A single flipped bit is caught in the header (a column's slot name,
    the digest) and in the compressed payload (zlib, digest, length or
    JSON check - whichever trips first)."""
    path = _one_snapshot(tmp_path)
    raw = path.read_bytes()
    _, header_end = _header_span(raw)
    name_at = raw.index(b'"llc.tags"') + 5
    digest_at = raw.index(b'"sha256":"') + 12
    payload_at = header_end + 1
    for offset in (name_at, digest_at,
                   payload_at + (len(raw) - payload_at) // 3, len(raw) - 20):
        flipped = bytearray(raw)
        flipped[offset] ^= 0x04
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointCorruptionError):
            load_snapshot(path)


def _header_file(path: Path, header: bytes) -> Path:
    path.write_bytes(SNAPSHOT_MAGIC + header + b"\n")
    return path


def test_corrupt_garbage_and_schema(tmp_path: Path) -> None:
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01 not json")
    with pytest.raises(CheckpointCorruptionError, match="magic"):
        load_snapshot(path)
    _header_file(path, b"\x00\x01 not json")
    with pytest.raises(CheckpointCorruptionError, match="header is not"):
        load_snapshot(path)
    _header_file(path, json.dumps({
        "byte_order": "little", "columns": [], "json_length": 0,
        "schema": 999, "sha256": "0" * 64}).encode())
    with pytest.raises(CheckpointCorruptionError, match="schema 999"):
        load_snapshot(path)
    _header_file(path, json.dumps({"schema": 2}).encode())
    with pytest.raises(CheckpointCorruptionError, match="object with keys"):
        load_snapshot(path)
    _header_file(path, json.dumps({
        "byte_order": "big", "columns": [], "json_length": 0,
        "schema": 2, "sha256": "0" * 64}).encode())
    with pytest.raises(CheckpointCorruptionError, match="byte order"):
        load_snapshot(path)


def test_corrupt_digest_mismatch(tmp_path: Path) -> None:
    path = _one_snapshot(tmp_path)
    raw = path.read_bytes()
    start, end = _header_span(raw)
    header = json.loads(raw[start:end])
    header["sha256"] = "0" * 64
    path.write_bytes(raw[:start] + json.dumps(header).encode() + raw[end:])
    with pytest.raises(CheckpointCorruptionError, match="digest mismatch"):
        load_snapshot(path)


def _schema_1_snapshot(path: Path) -> Path:
    """A file in the JSON envelope this build no longer reads:
    ``{"schema": 1, "sha256": ..., "body": base64(zlib(json))}``."""
    body = json.dumps(
        {"config": config_to_dict(_PROP_CONFIG), "state": {"state_schema": 3}},
        sort_keys=True, separators=(",", ":")).encode()
    path.write_text(json.dumps({
        "schema": 1, "sha256": hashlib.sha256(body).hexdigest(),
        "body": base64.b64encode(zlib.compress(body, 1)).decode("ascii"),
    }, sort_keys=True))
    return path


def test_schema_1_envelope_refused(tmp_path: Path, capsys) -> None:
    """There is one reader: a schema-1 file is refused as corrupt, naming
    its schema, by the loader and by ``repro resume``."""
    path = _schema_1_snapshot(tmp_path / "old.ckpt")
    with pytest.raises(CheckpointCorruptionError,
                       match="unsupported snapshot schema 1 "):
        load_snapshot(path)
    assert main(["resume", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unsupported snapshot schema 1 " in err
    assert "Traceback" not in err


def test_missing_snapshot_is_not_corruption(tmp_path: Path) -> None:
    with pytest.raises(FileNotFoundError):
        load_snapshot(tmp_path / "never-written.ckpt")


def test_mix_workload_not_checkpointable() -> None:
    """Generator-backed workload mixes cannot be captured; the refusal
    is structured and immediate, not a crash mid-save."""
    system = System(SimConfig(workload="mix_write_heavy", policy="Norm"))
    with pytest.raises(CheckpointUnsupportedError, match="mix"):
        capture_state(system)


def test_checkpoint_every_validated() -> None:
    with pytest.raises(ValueError, match="checkpoint_every"):
        SimConfig(workload="hmmer", checkpoint_every=0)


# ---------------------------------------------------------------------------
# Cache-key discipline: checkpoint knobs never enter the cache key.
# ---------------------------------------------------------------------------


def test_checkpoint_fields_not_in_cache_key(tmp_path: Path) -> None:
    base = SimConfig(workload="lbm", policy="Norm")
    sliced = dataclasses.replace(base, checkpoint_every=5000,
                                 checkpoint_dir=str(tmp_path))
    assert sliced.cache_key() == base.cache_key()
    assert sliced.cache_digest() == base.cache_digest()


def test_checkpoint_fields_registered_as_excluded() -> None:
    assert "checkpoint_every" in CACHE_KEY_EXCLUDED
    assert "checkpoint_dir" in CACHE_KEY_EXCLUDED


def test_cache_digests_pinned() -> None:
    """Adding the checkpoint fields must not have moved any existing
    cache digest; these literals predate the feature."""
    assert (SimConfig(workload="lbm", policy="Norm").cache_digest()
            == "244de89cfa2ec43abc490663")
    faulty = SimConfig(workload="zeusmp", policy="BE-Mellow+SC", seed=42,
                       faults=FaultConfig(wear_acceleration=5e6,
                                          spare_lines_per_bank=8,
                                          max_write_retries=1))
    assert faulty.cache_digest() == "33f4ef3c9c68704638415ff4"
