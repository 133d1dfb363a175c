"""Content-addressed storage for results and telemetry.

Every cached simulation result lives in a :class:`FileStore` keyed by
the config digest, and its telemetry bundle in the store's
:meth:`FileStore.bundle_dir` for that digest.  :class:`FileStore` keeps
the ``.repro_cache`` directory layout; :class:`MemoryStore` is the same
store over a temporary directory that dies with it, and backs
``REPRO_NO_CACHE`` and tests.  Neither touches a cache key: the same
config digests identically in both.  See ``docs/storage.md`` for the
contract.
"""

from repro.store.codec import (
    CACHE_SCHEMA_VERSION,
    CacheEntryError,
    atomic_write_bytes,
    atomic_write_chunks,
    atomic_write_text,
    entry_from_json,
    entry_to_json,
    result_from_dict,
    result_to_dict,
)
from repro.store.file import KIND_BUNDLE, KIND_ENTRY, FileStore, StoreEntry
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
    "StoreEntry",
    "atomic_write_bytes",
    "atomic_write_chunks",
    "atomic_write_text",
    "cache_clear",
    "cache_stats",
    "cache_verify",
    "entry_from_json",
    "entry_to_json",
    "open_store",
    "resolve_store",
    "result_from_dict",
    "result_to_dict",
]
