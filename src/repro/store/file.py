"""The content-addressed store: one flat directory of files.

A :class:`FileStore` holds **entries**: single blobs of bytes (the
schema-versioned JSON cache entries from :mod:`repro.store.codec`),
keyed by the config digest (:meth:`SimConfig.cache_digest`).

A telemetry bundle is not an object the store holds but a directory,
:meth:`FileStore.bundle_dir`: the simulator writes it in place, manifest
last, so :func:`repro.telemetry.bundle_is_complete` tells whether it is
usable.  The store only scans and clears those directories.

Layout (the original ``.repro_cache`` one, so every pre-existing cache
directory reads back without migration)::

    <root>/<digest>.json        one cache entry (codec JSON, utf-8)
    <root>/<digest>.telemetry/  one telemetry bundle (manifest last)
    <root>/*.tmp                stray atomic-write temps (crash debris)

Writes are write-to-temp + ``os.replace`` in the target directory, so
concurrent writers of the same digest last-write-win with either
complete payload and readers never see a torn entry - exactly the
guarantee the pre-store runner provided.  Every public method holds the
store lock, so one store object may be shared between threads.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.store.codec import atomic_write_bytes

#: Entry kinds a :meth:`FileStore.scan` can report.
KIND_ENTRY = "entry"
KIND_BUNDLE = "bundle"

ENTRY_SUFFIX = ".json"
BUNDLE_SUFFIX = ".telemetry"


@dataclass(frozen=True)
class StoreEntry:
    """One object a :meth:`FileStore.scan` found (``size`` in bytes)."""

    digest: str
    kind: str
    size: int


class FileStore:
    """Content-addressed store over one flat directory."""

    #: Short store tag ("file" or "memory"), reported as ``backend``.
    kind = "file"

    def __init__(self, root: Path | str) -> None:
        self._lock = threading.RLock()
        self.root = Path(root)
        #: Human-readable name of this store (reports, ``cache stats``).
        self.description = str(self.root)

    def location(self, digest: str) -> str:
        """Human-readable address of one entry (error messages, reports)."""
        return str(self.entry_path(digest))

    def entry_path(self, digest: str) -> Path:
        """The file holding one entry (tests corrupt entries through it)."""
        return self.root / f"{digest}{ENTRY_SUFFIX}"

    def bundle_dir(self, digest: str) -> Path:
        """Where the telemetry bundle of one run lives (may not exist)."""
        return self.root / f"{digest}{BUNDLE_SUFFIX}"

    # -- entries --------------------------------------------------------

    def get(self, digest: str) -> Optional[bytes]:
        with self._lock:
            try:
                return self.entry_path(digest).read_bytes()
            except FileNotFoundError:
                return None

    def put(self, digest: str, data: bytes) -> None:
        with self._lock:
            atomic_write_bytes(self.entry_path(digest), data)

    def delete(self, digest: str) -> bool:
        with self._lock:
            return _unlink(self.entry_path(digest))

    def scan(self) -> List[StoreEntry]:
        """Every entry and bundle directory, sorted by (kind, digest).

        The deterministic order is what lets ``cache stats``/``verify``
        produce stable reports.
        """
        with self._lock:
            found: List[StoreEntry] = []
            for path in self._children(ENTRY_SUFFIX):
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                found.append(StoreEntry(
                    digest=path.name[:-len(ENTRY_SUFFIX)], kind=KIND_ENTRY,
                    size=size))
            for path in self._bundle_dirs():
                found.append(StoreEntry(
                    digest=path.name[:-len(BUNDLE_SUFFIX)], kind=KIND_BUNDLE,
                    size=_dir_size(path)))
            return sorted(found, key=lambda e: (e.kind, e.digest))

    # -- maintenance ----------------------------------------------------

    def clear(self) -> int:
        """Delete every entry, bundle and ``*.tmp`` crash debris; returns
        the objects removed (a bundle counts as one)."""
        with self._lock:
            removed = sum(int(_unlink(path)) for path in
                          self._children(ENTRY_SUFFIX) + self._children(".tmp"))
            for bundle in self._bundle_dirs():
                try:
                    shutil.rmtree(bundle)
                except OSError:
                    continue
                removed += 1
            return removed

    def _children(self, suffix: str) -> List[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob(f"*{suffix}"))

    def _bundle_dirs(self) -> List[Path]:
        return [path for path in self._children(BUNDLE_SUFFIX)
                if path.is_dir()]


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
    except OSError:
        return False
    return True


def _dir_size(directory: Path) -> int:
    size = 0
    for item in directory.iterdir():
        try:
            size += item.stat().st_size
        except OSError:
            continue
    return size
