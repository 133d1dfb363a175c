"""The in-process dict backend: tests, and the ``REPRO_NO_CACHE`` store.

Nothing touches the filesystem (telemetry staging aside, which goes
through :meth:`Store.staging_root`).  Injected into the
:class:`~repro.experiments.runner.Runner` when the persistent cache is
disabled, so the "no cache" code path is *the same code path* as the
cached one - the entries simply die with the store object.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.store.base import KIND_BUNDLE, KIND_ENTRY, Store, StoreEntry


class MemoryStore(Store):
    """Ephemeral content-addressed store over plain dicts."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._entries: Dict[str, bytes] = {}
        self._bundles: Dict[str, Dict[str, bytes]] = {}

    @property
    def description(self) -> str:
        return "memory"

    # -- entries --------------------------------------------------------

    def _get(self, digest: str) -> Optional[bytes]:
        return self._entries.get(digest)

    def _put(self, digest: str, data: bytes) -> None:
        self._entries[digest] = data

    def _exists(self, digest: str) -> bool:
        return digest in self._entries

    def _delete(self, digest: str) -> bool:
        return self._entries.pop(digest, None) is not None

    def _scan(self) -> List[StoreEntry]:
        found = [
            StoreEntry(digest=digest, kind=KIND_ENTRY, size=len(data))
            for digest, data in self._entries.items()
        ]
        found.extend(
            StoreEntry(digest=digest, kind=KIND_BUNDLE,
                       size=sum(len(blob) for blob in files.values()))
            for digest, files in self._bundles.items()
        )
        return found

    # -- bundles --------------------------------------------------------

    def _has_bundle(self, digest: str) -> bool:
        return digest in self._bundles

    def _put_bundle(self, digest: str, files: Dict[str, bytes]) -> None:
        self._bundles[digest] = dict(files)

    def _get_bundle(self, digest: str) -> Optional[Dict[str, bytes]]:
        files = self._bundles.get(digest)
        return None if files is None else dict(files)

    def _delete_bundle(self, digest: str) -> bool:
        return self._bundles.pop(digest, None) is not None
