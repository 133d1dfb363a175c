"""The schema-versioned cache-entry codec: the bytes every store holds.

A cache entry is one JSON document: the schema version, the full
:meth:`SimConfig.cache_key` it was computed from, and the serialised
:class:`RunResult`.  The codec lives here - not in the runner - because
it is the *contract* of the storage layer: a
:class:`repro.store.FileStore` holds exactly these bytes under the
entry's digest, so the same run yields byte-identical entries in a
cache directory and in a :class:`repro.store.MemoryStore`.

The strict key-set check in :func:`result_from_dict` means a payload
written by a different ``RunResult`` layout reads as a cache miss rather
than loading with fields quietly zeroed; bump
:data:`CACHE_SCHEMA_VERSION` whenever the entry layout or the
``RunResult`` serialisation changes.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.endurance.wear import BankWearRecord
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult

#: Bump whenever the on-disk entry layout or RunResult serialisation
#: changes; entries with any other version re-simulate.
CACHE_SCHEMA_VERSION = 3

#: RunResult fields with structured (non-scalar) serialisations.
_COMPOSITE_FIELDS = ("bank_utilizations", "wear_records")

#: Derived from the dataclass itself so a field added to RunResult is
#: serialised automatically instead of being silently dropped; a new
#: composite field must be added to _COMPOSITE_FIELDS (and given explicit
#: encode/decode logic below) or it will round-trip as-is and fail the
#: strict key check in result_from_dict.
_SCALAR_FIELDS = [
    f.name for f in fields(RunResult) if f.name not in _COMPOSITE_FIELDS
]


class CacheEntryError(RuntimeError):
    """A cache entry exists but cannot be trusted (corrupt or stale)."""


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        name: getattr(result, name) for name in _SCALAR_FIELDS
    }
    data["bank_utilizations"] = list(result.bank_utilizations)
    data["wear_records"] = [
        {
            "normal": record.normal_writes,
            "slow": {str(k): v for k, v in record.slow_writes_by_factor.items()},
        }
        for record in result.wear_records
    ]
    return data


def result_from_dict(data: Dict[str, Any]) -> RunResult:
    # Strict key-set check: a payload written by a different RunResult
    # layout (field added or removed) must read as a cache miss, not load
    # with fields quietly zeroed.
    expected = set(_SCALAR_FIELDS) | set(_COMPOSITE_FIELDS)
    actual = set(data)
    if actual != expected:
        raise ValueError(
            "RunResult payload keys drifted: "
            f"missing={sorted(expected - actual)} "
            f"unexpected={sorted(actual - expected)}"
        )
    data = dict(data)
    bank_utilizations = data.pop("bank_utilizations")
    records: List[BankWearRecord] = []
    for item in data.pop("wear_records"):
        record = BankWearRecord(normal_writes=item["normal"])
        record.slow_writes_by_factor = {
            float(k): v for k, v in item["slow"].items()
        }
        records.append(record)
    result = RunResult(**data)
    result.wear_records = records
    result.bank_utilizations = bank_utilizations
    return result


def entry_to_json(config: SimConfig, result: RunResult) -> str:
    """Serialise one cache entry (schema version + key + result)."""
    return json.dumps({
        "schema": CACHE_SCHEMA_VERSION,
        "key": list(config.cache_key()),
        "result": result_to_dict(result),
    })


def entry_from_json(text: str) -> RunResult:
    """Parse a cache entry, raising :class:`CacheEntryError` on anything
    short of a well-formed current-schema entry."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise CacheEntryError(f"invalid JSON: {error}") from error
    if not isinstance(data, dict) or "schema" not in data:
        raise CacheEntryError("pre-versioning cache entry")
    if data["schema"] != CACHE_SCHEMA_VERSION:
        raise CacheEntryError(
            f"schema {data['schema']!r} != {CACHE_SCHEMA_VERSION}"
        )
    try:
        return result_from_dict(data["result"])
    except (KeyError, TypeError, ValueError) as error:
        raise CacheEntryError(f"undecodable result: {error!r}") from error


def atomic_write_chunks(path: Path, chunks: Iterable[bytes]) -> None:
    """Write the concatenated ``chunks`` to ``path`` so readers never see
    a partial file.

    Chunks are written as they are drawn, so a caller that generates its
    payload piece by piece never holds the whole of it.  The temp file
    lives in the target directory so ``os.replace`` stays on one
    filesystem and is atomic; concurrent writers of the same key
    last-write-win with either complete payload.  If drawing or writing
    a chunk raises, the temp file is removed and ``path`` is untouched.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (one-chunk
    :func:`atomic_write_chunks`)."""
    atomic_write_chunks(path, (data,))


def atomic_write_text(path: Path, text: str) -> None:
    """Text-mode convenience wrapper around :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))
