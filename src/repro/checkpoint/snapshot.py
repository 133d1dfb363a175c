"""Schema-versioned snapshot files: save, validate, load, resume.

A snapshot is one self-contained file of three parts::

    REPRO-SNAPSHOT                                  magic line
    {"byte_order":"little","columns":[[name, typecode, count], ...],
     "json_length":N,"model_version":M,"schema":3,
     "sha256":"<hex>"}                              one JSON header line
    zlib(canonical JSON of the rest of the state, then the column bytes)

The codec hands over a state whose large numeric columns are
``array.array`` objects (see :mod:`.codec`).  Encoding lifts each of
them out of the state, leaving ``null`` in its slot and a
``[name, typecode, count]`` row in the header, where *name* is the
dotted path of its slot (``llc.tags``).  The payload is the canonical
JSON (sorted keys, compact separators) of ``{"config": <SimConfig
fields>, "state": <state without its columns>}`` followed by each
column's items, little-endian, in table order; it is fed to SHA-256 and
to a level-1 zlib stream piece by piece and never joined uncompressed.
The digest covers the uncompressed payload, and the header's lengths
and column slots are checked against it, so any truncation or bit flip
- in the magic, the header, the compressed stream or the payload -
surfaces as a structured
:class:`~repro.checkpoint.errors.CheckpointCorruptionError` instead of a
silently wrong resume.  Embedding the full config makes a snapshot
self-contained: ``repro resume <file>`` needs no other inputs.  A file
another build wrote - an envelope schema this build does not read, a
header whose ``model_version`` is not this build's
:data:`~repro.sim.config.MODEL_VERSION`, or config keys this build does
not know - is refused with
:class:`~repro.checkpoint.errors.CheckpointVersionError`, which names
what differs instead of calling the file damaged.

Writes go through :func:`repro.store.codec.atomic_write_bytes`
(temp file + ``os.replace``), so a crash mid-write can never leave a
half-written snapshot where a resume would find it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import sys
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Tuple, Union)

from repro.faults.config import FaultConfig
from repro.sim.config import MODEL_VERSION, SimConfig
from repro.store.codec import atomic_write_bytes

from .codec import COLUMN_TYPECODES, capture_state, restore_state
from .errors import CheckpointCorruptionError, CheckpointVersionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.system import System

#: Version of the snapshot *file envelope*; the state layout inside the
#: payload carries its own ``state_schema`` (see :mod:`.codec`).
SNAPSHOT_SCHEMA_VERSION = 3

#: The first line of every snapshot file.
SNAPSHOT_MAGIC = b"REPRO-SNAPSHOT\n"

#: Column items are stored in this byte order whatever the host's.
BYTE_ORDER = "little"

#: Default snapshot filename pattern, keyed by accesses processed so a
#: directory of slices sorts chronologically.
SNAPSHOT_NAME_FORMAT = "checkpoint-{accesses:012d}.ckpt"

_HEADER_KEYS = frozenset({"byte_order", "columns", "json_length",
                          "model_version", "schema", "sha256"})


def config_to_dict(config: SimConfig) -> Dict[str, Any]:
    """SimConfig -> JSON-able dict (policy by name, faults expanded)."""
    data = {field.name: getattr(config, field.name)
            for field in dataclasses.fields(SimConfig)}
    data["policy"] = config.policy_name
    if config.faults is not None:
        data["faults"] = dataclasses.asdict(config.faults)
    return data


def config_from_dict(data: Dict[str, Any]) -> SimConfig:
    """The inverse of :func:`config_to_dict`; a key that is not a
    :class:`SimConfig` field raises :class:`TypeError`."""
    kwargs = dict(data)
    faults = kwargs.get("faults")
    if faults is not None:
        kwargs["faults"] = FaultConfig(**faults)
    return SimConfig(**kwargs)


def _lift_columns(state: Dict[str, Any], prefix: str,
                  columns: List[Tuple[str, array[Any]]]) -> Dict[str, Any]:
    """A copy of ``state`` with every column (at any depth of nested
    dicts) replaced by ``None`` and appended to ``columns`` under its
    dotted path, in sorted-key order."""
    lifted = dict(state)
    for key in sorted(state):
        value = state[key]
        if isinstance(value, array):
            columns.append((prefix + key, value))
            lifted[key] = None
        elif isinstance(value, dict):
            lifted[key] = _lift_columns(value, f"{prefix}{key}.", columns)
    return lifted


def _little_endian(column: array[Any]) -> array[Any]:
    if sys.byteorder == BYTE_ORDER:
        return column
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped


def _encode_snapshot(config: SimConfig, state: Dict[str, Any]) -> bytes:
    columns: List[Tuple[str, array[Any]]] = []
    body = {"config": config_to_dict(config),
            "state": _lift_columns(state, "", columns)}
    json_bytes = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False,
    ).encode("utf-8")
    digest = hashlib.sha256(json_bytes)
    compressor = zlib.compressobj(1)
    chunks = [compressor.compress(json_bytes)]
    for _, column in columns:
        items = _little_endian(column)
        digest.update(items)
        chunks.append(compressor.compress(items))
    chunks.append(compressor.flush())
    header = {
        "byte_order": BYTE_ORDER,
        "columns": [[name, column.typecode, len(column)]
                    for name, column in columns],
        "json_length": len(json_bytes),
        "model_version": MODEL_VERSION,
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "sha256": digest.hexdigest(),
    }
    header_line = json.dumps(
        header, sort_keys=True, separators=(",", ":")).encode("ascii")
    return b"".join([SNAPSHOT_MAGIC, header_line, b"\n", *chunks])


def _unsupported_schema(schema: Any) -> str:
    return (f"unsupported snapshot schema {schema!r} "
            f"(this build reads schema {SNAPSHOT_SCHEMA_VERSION})")


def _without_magic(path: Path, raw: bytes) -> CheckpointCorruptionError:
    """Why a file that lacks the magic line is refused: an older
    envelope names its schema, anything else is not a snapshot."""
    try:
        envelope = json.loads(raw)
    except ValueError:
        envelope = None
    if isinstance(envelope, dict) and "schema" in envelope:
        return CheckpointVersionError(
            path, _unsupported_schema(envelope["schema"]))
    return CheckpointCorruptionError(
        path, "not a snapshot file (bad magic line)")


def _read_header(path: Path, raw: bytes) -> Tuple[Dict[str, Any], int]:
    """The validated header and the offset where the payload starts."""
    start = len(SNAPSHOT_MAGIC)
    end = raw.find(b"\n", start)
    if end < 0:
        raise CheckpointCorruptionError(path, "header line is truncated")
    try:
        header = json.loads(raw[start:end])
    except ValueError as error:
        raise CheckpointCorruptionError(
            path, f"header is not valid JSON: {error}") from None
    # The schema first: an older header has another key set, and is
    # refused as another build's file, not as a malformed header.
    if (isinstance(header, dict) and "schema" in header
            and header["schema"] != SNAPSHOT_SCHEMA_VERSION):
        raise CheckpointVersionError(
            path, _unsupported_schema(header["schema"]))
    if not isinstance(header, dict) or header.keys() != _HEADER_KEYS:
        raise CheckpointCorruptionError(
            path, f"header is not an object with keys {sorted(_HEADER_KEYS)}")
    if header["model_version"] != MODEL_VERSION:
        raise CheckpointVersionError(
            path, f"model version {header['model_version']!r} (this build "
                  f"simulates model version {MODEL_VERSION})")
    length = header["json_length"]
    if not (header["byte_order"] == BYTE_ORDER
            and type(length) is int and length >= 0
            and isinstance(header["columns"], list)
            and all(map(_is_column_row, header["columns"]))):
        raise CheckpointCorruptionError(
            path, "header holds a malformed byte order, JSON length or "
                  "column table")
    return header, end + 1


def _is_column_row(row: Any) -> bool:
    return (isinstance(row, list) and len(row) == 3
            and isinstance(row[0], str) and row[1] in COLUMN_TYPECODES
            and type(row[2]) is int and row[2] >= 0)


def _inflate(path: Path, compressed: memoryview) -> bytes:
    inflater = zlib.decompressobj()
    try:
        payload = inflater.decompress(compressed)
    except zlib.error as error:
        raise CheckpointCorruptionError(
            path, f"payload does not decompress: {error}") from None
    if not inflater.eof:
        raise CheckpointCorruptionError(path, "payload is truncated")
    if inflater.unused_data:
        raise CheckpointCorruptionError(
            path, f"{len(inflater.unused_data)} bytes follow the payload")
    return payload


def _place_column(path: Path, state: Dict[str, Any], name: str,
                  column: array[Any]) -> None:
    """Put ``column`` back into the ``None`` slot its dotted name
    addresses; a name without such a slot is damage."""
    *parents, key = name.split(".")
    node: Any = state
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not (isinstance(node, dict) and key in node and node[key] is None):
        raise CheckpointCorruptionError(
            path, f"column {name!r} has no empty slot in the state")
    node[key] = column


def _decode_snapshot(path: Path, raw: bytes
                     ) -> Tuple[SimConfig, Dict[str, Any]]:
    if not raw.startswith(SNAPSHOT_MAGIC):
        raise _without_magic(path, raw)
    header, offset = _read_header(path, raw)
    payload = _inflate(path, memoryview(raw)[offset:])
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["sha256"]:
        raise CheckpointCorruptionError(
            path, f"payload digest mismatch: header says "
                  f"{header['sha256']}, payload hashes to {digest}")
    json_length = header["json_length"]
    sizes = [count * array(typecode).itemsize
             for _, typecode, count in header["columns"]]
    if json_length + sum(sizes) != len(payload):
        raise CheckpointCorruptionError(
            path, f"payload holds {len(payload)} bytes but the header "
                  f"describes {json_length + sum(sizes)}")
    try:
        body = json.loads(payload[:json_length])
    except ValueError as error:
        raise CheckpointCorruptionError(
            path, f"payload is not valid JSON: {error}") from None
    if not isinstance(body, dict) or "config" not in body \
            or not isinstance(body.get("state"), dict):
        raise CheckpointCorruptionError(
            path, "payload lacks config/state sections")
    view = memoryview(payload)
    start = json_length
    for (name, typecode, _), size in zip(header["columns"], sizes):
        column = array(typecode)
        column.frombytes(view[start:start + size])
        start += size
        _place_column(path, body["state"], name, _little_endian(column))
    fields = {field.name for field in dataclasses.fields(SimConfig)}
    unknown = sorted(set(body["config"]) - fields) if isinstance(
        body["config"], dict) else []
    if unknown:
        raise CheckpointVersionError(
            path, f"its config has keys this build does not know: "
                  f"{', '.join(unknown)}")
    try:
        config = config_from_dict(body["config"])
    except (TypeError, ValueError) as error:
        raise CheckpointCorruptionError(
            path, f"embedded config does not validate: {error}") from None
    return config, body["state"]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic collector around a bulk capture or restore, whose
    fresh containers (the decoded JSON, the rebuilt requests and LLC
    columns) would otherwise count towards whole-heap passes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def snapshot_bytes(system: "System") -> bytes:
    """The encoded snapshot for a paused system (no file involved)."""
    with _collector_paused():
        return _encode_snapshot(system.config, capture_state(system))


def save_snapshot(system: "System",
                  path: Union[str, Path]) -> Path:
    """Capture ``system`` and atomically write it to ``path``."""
    target = Path(path)
    atomic_write_bytes(target, snapshot_bytes(system))
    return target


def default_snapshot_path(system: "System",
                          directory: Union[str, Path]) -> Path:
    """Chronologically sorting slice filename for ``directory``."""
    return Path(directory) / SNAPSHOT_NAME_FORMAT.format(
        accesses=system.core.accesses_processed)


def load_snapshot(path: Union[str, Path]
                  ) -> Tuple[SimConfig, Dict[str, Any]]:
    """Read and fully validate a snapshot file.

    Raises :class:`CheckpointCorruptionError` on any damage and
    :class:`FileNotFoundError` when the file simply is not there (a
    missing snapshot is a scheduling condition, not corruption).
    """
    target = Path(path)
    return _decode_snapshot(target, target.read_bytes())


def restore_system(path: Union[str, Path],
                   checkpoint_every: Optional[int] = None,
                   checkpoint_dir: Optional[str] = None) -> "System":
    """Rebuild a runnable :class:`System` from a snapshot file.

    The returned system continues via
    :meth:`~repro.sim.system.System.finish_run` (or stepwise via
    ``continue_run``) and is bit-identical, from the captured boundary
    onward, to the run that produced the snapshot.  ``checkpoint_every``
    and ``checkpoint_dir``, when given, replace the embedded config's
    slicing knobs for the rest of the run; they sit outside the
    simulation's identity, and a value the config refuses raises
    :class:`ValueError`.
    """
    from repro.sim.system import System
    with _collector_paused():
        config, state = load_snapshot(path)
        overrides = {name: value for name, value in (
            ("checkpoint_every", checkpoint_every),
            ("checkpoint_dir", checkpoint_dir)) if value is not None}
        if overrides:
            config = dataclasses.replace(config, **overrides)
        system = System(config)
        restore_state(system, state)
        system.rearm_after_restore()
    return system
