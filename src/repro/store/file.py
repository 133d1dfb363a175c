"""The directory-of-files backend: the original ``.repro_cache`` layout.

Layout (unchanged since PR 1/PR 3, so every pre-existing cache directory
reads back without migration)::

    <root>/<digest>.json        one cache entry (codec JSON, utf-8)
    <root>/<digest>.telemetry/  one telemetry bundle (manifest last)
    <root>/*.tmp                stray atomic-write temps (crash debris)

Writes are write-to-temp + ``os.replace`` in the target directory, so
concurrent writers of the same digest last-write-win with either
complete payload and readers never see a torn entry - exactly the
guarantee the pre-store runner provided.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, List, Optional

from repro.store.base import (KIND_BUNDLE, KIND_ENTRY, Store, StoreEntry,
                              export_bundle_dir, read_bundle_dir)
from repro.store.codec import atomic_write_bytes
from repro.telemetry import bundle_is_complete

ENTRY_SUFFIX = ".json"
BUNDLE_SUFFIX = ".telemetry"


class FileStore(Store):
    """Content-addressed store over one flat directory."""

    kind = "file"

    def __init__(self, root: Path | str) -> None:
        super().__init__()
        self.root = Path(root)

    @property
    def description(self) -> str:
        return str(self.root)

    def location(self, digest: str) -> str:
        return str(self._entry_file(digest))

    # -- layout ---------------------------------------------------------

    def _entry_file(self, digest: str) -> Path:
        return self.root / f"{digest}{ENTRY_SUFFIX}"

    def _bundle_dir(self, digest: str) -> Path:
        return self.root / f"{digest}{BUNDLE_SUFFIX}"

    def entry_path(self, digest: str) -> Optional[Path]:
        return self._entry_file(digest)

    def bundle_path(self, digest: str) -> Optional[Path]:
        return self._bundle_dir(digest)

    # -- entries --------------------------------------------------------

    def _get(self, digest: str) -> Optional[bytes]:
        try:
            return self._entry_file(digest).read_bytes()
        except FileNotFoundError:
            return None

    def _put(self, digest: str, data: bytes) -> None:
        atomic_write_bytes(self._entry_file(digest), data)

    def _exists(self, digest: str) -> bool:
        return self._entry_file(digest).is_file()

    def _delete(self, digest: str) -> bool:
        try:
            self._entry_file(digest).unlink()
        except FileNotFoundError:
            return False
        except OSError:
            return False
        return True

    def _scan(self) -> List[StoreEntry]:
        found: List[StoreEntry] = []
        if not self.root.is_dir():
            return found
        for path in self.root.glob(f"*{ENTRY_SUFFIX}"):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            found.append(StoreEntry(
                digest=path.name[:-len(ENTRY_SUFFIX)], kind=KIND_ENTRY,
                size=size))
        for path in self.root.glob(f"*{BUNDLE_SUFFIX}"):
            if not path.is_dir():
                continue
            size = 0
            for item in path.iterdir():
                try:
                    size += item.stat().st_size
                except OSError:
                    continue
            found.append(StoreEntry(
                digest=path.name[:-len(BUNDLE_SUFFIX)], kind=KIND_BUNDLE,
                size=size))
        return found

    # -- bundles --------------------------------------------------------

    def _has_bundle(self, digest: str) -> bool:
        return bundle_is_complete(self._bundle_dir(digest))

    def _put_bundle(self, digest: str, files: Dict[str, bytes]) -> None:
        export_bundle_dir(files, self._bundle_dir(digest))

    def _get_bundle(self, digest: str) -> Optional[Dict[str, bytes]]:
        return read_bundle_dir(self._bundle_dir(digest))

    def _delete_bundle(self, digest: str) -> bool:
        bundle = self._bundle_dir(digest)
        if not bundle.is_dir():
            return False
        try:
            shutil.rmtree(bundle)
        except OSError:
            return False
        return True

    # -- maintenance ----------------------------------------------------

    def clear(self) -> int:
        """Also sweep ``*.tmp`` crash debris the generic scan never sees."""
        with self._lock:
            removed = super().clear()
            if self.root.is_dir():
                for path in self.root.glob("*.tmp"):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
            return removed
