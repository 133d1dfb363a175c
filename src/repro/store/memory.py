"""The ephemeral store: tests, and the ``REPRO_NO_CACHE`` store.

A :class:`MemoryStore` is a :class:`~repro.store.file.FileStore` over a
private ``repro-memory-*`` temporary directory, deleted when the store
is collected or the interpreter exits.  Injected into the
:class:`~repro.experiments.runner.Runner` when the persistent cache is
disabled, so the "no cache" code path is *the same code path* as the
cached one - entries and bundles simply die with the store object.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref

from repro.store.file import FileStore


class MemoryStore(FileStore):
    """A :class:`FileStore` whose directory dies with the object."""

    kind = "memory"

    def __init__(self) -> None:
        root = tempfile.mkdtemp(prefix="repro-memory-")
        super().__init__(root)
        self.description = "memory"
        weakref.finalize(self, shutil.rmtree, root, ignore_errors=True)
