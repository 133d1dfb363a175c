"""Schema-versioned snapshot files: save, validate, load, resume.

A snapshot is one JSON file::

    {"schema": 1, "sha256": "<hex digest>", "body": "<base64(zlib(json))>"}

The *body* is the canonical JSON (sorted keys, compact separators) of
``{"config": <SimConfig fields>, "state": <codec state>}``; the digest
is computed over the uncompressed canonical body bytes, so any
truncation or bit flip - in the envelope, the base64, the compressed
stream, or the body itself - surfaces as a structured
:class:`~repro.checkpoint.errors.CheckpointCorruptionError` instead of a
silently wrong resume.  Embedding the full config makes a snapshot
self-contained: ``repro resume <file>`` needs no other inputs.

Writes go through :func:`repro.store.codec.atomic_write_bytes`
(temp file + ``os.replace``), so a crash mid-write can never leave a
half-written snapshot where a resume would find it.
"""

from __future__ import annotations

import base64
import dataclasses
import gc
import hashlib
import json
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Tuple, Union

from repro.faults.config import FaultConfig
from repro.sim.config import SimConfig
from repro.store.codec import atomic_write_bytes

from .codec import capture_state, restore_state
from .errors import CheckpointCorruptionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.sim.system import System

#: Version of the snapshot *file envelope*; the state layout inside the
#: body carries its own ``state_schema`` (see :mod:`.codec`).
SNAPSHOT_SCHEMA_VERSION = 1

#: Default snapshot filename pattern, keyed by accesses processed so a
#: directory of slices sorts chronologically.
SNAPSHOT_NAME_FORMAT = "checkpoint-{accesses:012d}.ckpt"


def config_to_dict(config: SimConfig) -> Dict[str, Any]:
    """SimConfig -> JSON-able dict (policy by name, faults expanded)."""
    data = {field.name: getattr(config, field.name)
            for field in dataclasses.fields(SimConfig)}
    data["policy"] = config.policy_name
    if config.faults is not None:
        data["faults"] = dataclasses.asdict(config.faults)
    return data


def config_from_dict(data: Dict[str, Any]) -> SimConfig:
    kwargs = dict(data)
    faults = kwargs.get("faults")
    if faults is not None:
        kwargs["faults"] = FaultConfig(**faults)
    return SimConfig(**kwargs)


def _encode_snapshot(config: SimConfig, state: Dict[str, Any]) -> bytes:
    body = {"config": config_to_dict(config), "state": state}
    body_bytes = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False,
    ).encode("utf-8")
    envelope = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "sha256": hashlib.sha256(body_bytes).hexdigest(),
        "body": base64.b64encode(
            zlib.compress(body_bytes, 1)).decode("ascii"),
    }
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def _decode_snapshot(path: Path, raw: bytes
                     ) -> Tuple[SimConfig, Dict[str, Any]]:
    try:
        envelope = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointCorruptionError(
            path, f"invalid JSON envelope: {error}") from None
    if not isinstance(envelope, dict):
        raise CheckpointCorruptionError(
            path, f"envelope is {type(envelope).__name__}, expected object")
    missing = {"schema", "sha256", "body"} - set(envelope)
    if missing:
        raise CheckpointCorruptionError(
            path, f"envelope missing keys: {sorted(missing)}")
    if envelope["schema"] != SNAPSHOT_SCHEMA_VERSION:
        raise CheckpointCorruptionError(
            path, f"unsupported snapshot schema {envelope['schema']!r} "
                  f"(this build reads schema {SNAPSHOT_SCHEMA_VERSION})")
    try:
        body_bytes = zlib.decompress(
            base64.b64decode(envelope["body"], validate=True))
    except (ValueError, TypeError, zlib.error) as error:
        raise CheckpointCorruptionError(
            path, f"body does not decode: {error}") from None
    digest = hashlib.sha256(body_bytes).hexdigest()
    if digest != envelope["sha256"]:
        raise CheckpointCorruptionError(
            path, f"body digest mismatch: envelope says "
                  f"{envelope['sha256']}, body hashes to {digest}")
    try:
        body = json.loads(body_bytes.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointCorruptionError(
            path, f"body is not valid JSON: {error}") from None
    if not isinstance(body, dict) or "config" not in body \
            or not isinstance(body.get("state"), dict):
        raise CheckpointCorruptionError(
            path, "body lacks config/state sections")
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
    target.parent.mkdir(parents=True, exist_ok=True)
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


def restore_system(path: Union[str, Path]) -> "System":
    """Rebuild a runnable :class:`System` from a snapshot file.

    The returned system continues via
    :meth:`~repro.sim.system.System.finish_run` (or stepwise via
    ``continue_run``) and is bit-identical, from the captured boundary
    onward, to the run that produced the snapshot.
    """
    from repro.sim.system import System
    with _collector_paused():
        config, state = load_snapshot(path)
        system = System(config)
        restore_state(system, state)
        system.rearm_after_restore()
    return system
