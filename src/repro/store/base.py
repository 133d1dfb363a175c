"""The abstract content-addressed store both backends implement.

A :class:`Store` holds two kinds of objects, both keyed by the config
digest (:meth:`SimConfig.cache_digest`):

* **entries** - single blobs of bytes (the schema-versioned JSON cache
  entries from :mod:`repro.store.codec`);
* **bundles** - multi-file telemetry bundles.  A bundle is only ever
  visible as a whole: the file backend commits the manifest last and
  the memory backend swaps the whole mapping in at once, so a reader
  that can see ``manifest.json`` can trust every other file is present.

The public methods here are template methods: they hold the store lock,
then delegate to the ``_``-prefixed primitive the backend provides.
That keeps thread-safety semantics identical across backends - the
conformance suite in ``tests/test_store.py`` relies on it.

Backend choice is *never* part of a cache key: the same config digests
to the same entry in every backend.
"""

from __future__ import annotations

import tempfile
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.store.codec import atomic_write_bytes
from repro.telemetry import MANIFEST_NAME, bundle_is_complete


#: Entry kinds a :meth:`Store.scan` can report.
KIND_ENTRY = "entry"
KIND_BUNDLE = "bundle"


@dataclass(frozen=True)
class StoreEntry:
    """One object a :meth:`Store.scan` found (``size`` in bytes)."""

    digest: str
    kind: str
    size: int


@dataclass(frozen=True)
class StoreStats:
    """Cheap whole-store summary (:meth:`Store.stat`)."""

    kind: str
    description: str
    entries: int
    bundles: int
    entry_bytes: int


class Store(ABC):
    """Digest-keyed, bytes-valued storage with atomic bundle commits.

    Subclasses implement the ``_``-prefixed primitives; the public
    surface adds locking, so one store object may be shared between
    threads.
    """

    #: Short backend tag ("file" or "memory").
    kind: str = "abstract"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._staging: Optional[Path] = None

    # -- identity -------------------------------------------------------

    @property
    @abstractmethod
    def description(self) -> str:
        """Human-readable name of this store (reports, ``cache stats``)."""

    def location(self, digest: str) -> str:
        """Human-readable address of one entry (error messages, reports)."""
        return f"{self.description}#{digest}"

    # -- entry API ------------------------------------------------------

    def get(self, digest: str) -> Optional[bytes]:
        with self._lock:
            return self._get(digest)

    def put(self, digest: str, data: bytes) -> None:
        with self._lock:
            self._put(digest, data)

    def exists(self, digest: str) -> bool:
        with self._lock:
            return self._exists(digest)

    def delete(self, digest: str) -> bool:
        with self._lock:
            return self._delete(digest)

    def scan(self) -> List[StoreEntry]:
        """Every entry and bundle, sorted by (kind, digest).

        The deterministic order is what lets ``cache stats``/``verify``
        share one loop across backends and still produce stable reports.
        """
        with self._lock:
            return sorted(self._scan(),
                          key=lambda e: (e.kind, e.digest))

    def stat(self) -> StoreStats:
        entries = bundles = entry_bytes = 0
        for item in self.scan():
            if item.kind == KIND_BUNDLE:
                bundles += 1
            else:
                entries += 1
                entry_bytes += item.size
        return StoreStats(kind=self.kind, description=self.description,
                          entries=entries, bundles=bundles,
                          entry_bytes=entry_bytes)

    # -- bundle API -----------------------------------------------------

    def has_bundle(self, digest: str) -> bool:
        with self._lock:
            return self._has_bundle(digest)

    def put_bundle(self, digest: str, files: Mapping[str, bytes]) -> None:
        """Commit a complete multi-file bundle atomically.

        The mapping must include the manifest: a bundle is *defined* by
        its manifest landing last, and committing one without it would
        create a bundle no reader can ever trust.
        """
        if MANIFEST_NAME not in files:
            raise ValueError(
                f"bundle {digest} is missing {MANIFEST_NAME}; refusing to "
                "commit an incomplete bundle")
        with self._lock:
            self._put_bundle(digest, dict(files))

    def get_bundle(self, digest: str) -> Optional[Dict[str, bytes]]:
        with self._lock:
            return self._get_bundle(digest)

    def delete_bundle(self, digest: str) -> bool:
        with self._lock:
            return self._delete_bundle(digest)

    # -- filesystem seams (telemetry zero-copy + staging) ---------------

    def entry_path(self, digest: str) -> Optional[Path]:
        """Filesystem home of an entry, when the backend has one.

        Only the file backend returns a path; everything that must poke
        at raw entry files (tests corrupting entries, legacy tooling)
        goes through this instead of guessing the layout.
        """
        return None

    def bundle_path(self, digest: str) -> Optional[Path]:
        """Directory a bundle natively lives in, when the backend has one.

        When non-None the simulator writes its telemetry bundle straight
        into this directory (zero-copy); otherwise the runner stages the
        bundle on disk and commits it via :meth:`put_bundle`.
        """
        return None

    def staging_root(self) -> Path:
        """Scratch directory for bundle staging (the memory backend)."""
        with self._lock:
            if self._staging is None:
                self._staging = Path(tempfile.mkdtemp(
                    prefix=f"repro-{self.kind}-staging-"))
            return self._staging

    # -- maintenance ----------------------------------------------------

    def clear(self) -> int:
        """Delete everything; returns objects removed (bundle counts 1)."""
        with self._lock:
            removed = 0
            for item in self._scan():
                if item.kind == KIND_BUNDLE:
                    removed += int(self._delete_bundle(item.digest))
                else:
                    removed += int(self._delete(item.digest))
            return removed

    # -- backend primitives --------------------------------------------

    @abstractmethod
    def _get(self, digest: str) -> Optional[bytes]: ...

    @abstractmethod
    def _put(self, digest: str, data: bytes) -> None: ...

    @abstractmethod
    def _exists(self, digest: str) -> bool: ...

    @abstractmethod
    def _delete(self, digest: str) -> bool: ...

    @abstractmethod
    def _scan(self) -> List[StoreEntry]: ...

    @abstractmethod
    def _has_bundle(self, digest: str) -> bool: ...

    @abstractmethod
    def _put_bundle(self, digest: str, files: Dict[str, bytes]) -> None: ...

    @abstractmethod
    def _get_bundle(self, digest: str) -> Optional[Dict[str, bytes]]: ...

    @abstractmethod
    def _delete_bundle(self, digest: str) -> bool: ...


def export_bundle_dir(files: Mapping[str, bytes], out_dir: Path) -> None:
    """Materialise a bundle's files into a directory, manifest last.

    Mirrors the telemetry writer's own ordering so a half-exported
    directory is never mistaken for a complete bundle
    (:func:`repro.telemetry.bundle_is_complete`).
    """
    out_dir = Path(out_dir)
    for name in sorted(files):
        if name == MANIFEST_NAME:
            continue
        atomic_write_bytes(out_dir / name, files[name])
    atomic_write_bytes(out_dir / MANIFEST_NAME, files[MANIFEST_NAME])


def read_bundle_dir(bundle: Path) -> Optional[Dict[str, bytes]]:
    """Load a complete on-disk bundle into memory; None if incomplete.

    The inverse of :func:`export_bundle_dir`: stray ``*.tmp`` debris is
    skipped, and a directory without its manifest reads as no bundle at
    all (never as a partial one).
    """
    bundle = Path(bundle)
    if not bundle_is_complete(bundle):
        return None
    files: Dict[str, bytes] = {}
    for path in sorted(bundle.iterdir()):
        if not path.is_file() or path.name.endswith(".tmp"):
            continue
        files[path.name] = path.read_bytes()
    return files
