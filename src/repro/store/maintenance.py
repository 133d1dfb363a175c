"""Backend selection and cache maintenance: resolve, stats, verify, clear.

:func:`resolve_store` is the one place a store is picked.  The
maintenance functions back the ``repro cache`` CLI verbs; each is one
:meth:`FileStore.scan`-driven pass.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.sim.config import digest_for_key
from repro.store.codec import CACHE_SCHEMA_VERSION, CacheEntryError, entry_from_json
from repro.store.file import KIND_BUNDLE, FileStore
from repro.store.memory import MemoryStore

#: What the maintenance verbs accept as a cache designator: an open
#: store, a directory path, or None (environment resolution).
CacheTarget = Union[FileStore, Path, str, None]


def resolve_store(cache_dir: Optional[Path | str] = None,
                  respect_no_cache: bool = True) -> FileStore:
    """The one place store selection happens.

    Precedence: ``REPRO_NO_CACHE=1`` (memory store; disabled caching) >
    explicit ``cache_dir`` > ``REPRO_CACHE_DIR`` > ``.repro_cache``.
    None of this can move a cache key - it picks *where* bytes live,
    never what digest they live under.

    Maintenance verbs pass ``respect_no_cache=False``: inspecting or
    clearing an on-disk cache should work even in a shell where caching
    is disabled for runs.
    """
    if respect_no_cache and os.environ.get("REPRO_NO_CACHE", "0") == "1":
        return MemoryStore()
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return FileStore(Path(cache_dir))


def open_store(target: CacheTarget) -> FileStore:
    """Resolve a maintenance target to a live store.

    ``REPRO_NO_CACHE`` is deliberately ignored - inspecting a cache must
    work even where caching is disabled for runs.
    """
    if isinstance(target, FileStore):
        return target
    return resolve_store(cache_dir=target, respect_no_cache=False)


def cache_stats(target: CacheTarget = None) -> Dict[str, Any]:
    """Entry count / footprint / health summary of one cache store."""
    store = open_store(target)
    stats: Dict[str, Any] = {
        "cache_dir": store.description,
        "backend": store.kind,
        "entries": 0,
        "total_bytes": 0,
        "valid": 0,
        "invalid": 0,
        "schema_versions": {},
        "telemetry_bundles": 0,
    }
    for item in store.scan():
        if item.kind == KIND_BUNDLE:
            stats["telemetry_bundles"] += 1
            continue
        stats["entries"] += 1
        stats["total_bytes"] += item.size
        data = store.get(item.digest)
        try:
            payload = json.loads(data if data is not None else b"")
            schema = payload.get("schema", "unversioned")
        except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
            schema = "corrupt"
        key = str(schema)
        stats["schema_versions"][key] = stats["schema_versions"].get(key, 0) + 1
        if schema == CACHE_SCHEMA_VERSION:
            stats["valid"] += 1
        else:
            stats["invalid"] += 1
    return stats


def cache_verify(target: CacheTarget = None) -> Dict[str, Any]:
    """Deep-check every entry: parseable, current schema, digest matches.

    A digest mismatch means the entry was renamed/re-keyed or the key
    inside drifted; such entries would never be read back and only waste
    space.
    """
    store = open_store(target)
    report: Dict[str, Any] = {"cache_dir": store.description,
                              "ok": 0, "bad": []}
    for item in store.scan():
        if item.kind == KIND_BUNDLE:
            continue
        try:
            data = store.get(item.digest)
            if data is None:
                raise CacheEntryError("entry vanished mid-scan")
            text = data.decode("utf-8")
            entry_from_json(text)
            expected = digest_for_key(json.loads(text)["key"])
            if item.digest != expected:
                raise CacheEntryError(
                    f"digest mismatch (expected {expected})")
        except (CacheEntryError, OSError, UnicodeDecodeError) as error:
            report["bad"].append({"path": store.location(item.digest),
                                  "error": str(error)})
        else:
            report["ok"] += 1
    return report


def cache_clear(target: CacheTarget = None) -> int:
    """Delete all entries, bundles and crash debris; returns the count
    of objects removed (a bundle counts as one)."""
    return open_store(target).clear()
