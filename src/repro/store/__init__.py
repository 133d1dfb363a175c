"""Content-addressed storage for results and telemetry.

Every cached simulation result and telemetry bundle lives in a
:class:`Store` keyed by the config digest.  :class:`FileStore` keeps the
``.repro_cache`` directory layout; :class:`MemoryStore` backs
``REPRO_NO_CACHE`` and tests.  Backend choice never touches a cache key:
the same config digests identically in both.  See ``docs/storage.md``
for the contract.
"""

from repro.store.base import (
    KIND_BUNDLE,
    KIND_ENTRY,
    Store,
    StoreEntry,
    StoreStats,
    export_bundle_dir,
    read_bundle_dir,
)
from repro.store.codec import (
    CACHE_SCHEMA_VERSION,
    CacheEntryError,
    atomic_write_bytes,
    atomic_write_text,
    entry_from_json,
    entry_to_json,
    result_from_dict,
    result_to_dict,
)
from repro.store.file import FileStore
from repro.store.maintenance import (
    cache_clear,
    cache_stats,
    cache_verify,
    open_store,
    resolve_store,
)
from repro.store.memory import MemoryStore

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryError",
    "FileStore",
    "KIND_BUNDLE",
    "KIND_ENTRY",
    "MemoryStore",
    "Store",
    "StoreEntry",
    "StoreStats",
    "atomic_write_bytes",
    "atomic_write_text",
    "cache_clear",
    "cache_stats",
    "cache_verify",
    "entry_from_json",
    "entry_to_json",
    "export_bundle_dir",
    "open_store",
    "read_bundle_dir",
    "resolve_store",
    "result_from_dict",
    "result_to_dict",
]
