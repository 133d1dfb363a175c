"""Checkpoint error taxonomy.

Two failure families matter to callers:

* :class:`CheckpointCorruptionError` - the snapshot *file* cannot be
  resumed: it is damaged (truncated, bit-flipped, digest mismatch) or,
  as its subclass :class:`CheckpointVersionError`, intact but written
  by another build.  The run it came from is fine; re-simulating from
  scratch reproduces it exactly, so the Runner path treats this as
  "warn and resimulate", never as a silent partial resume.
* :class:`CheckpointUnsupportedError` - the *live system* holds state
  the codec has no descriptor for (an unknown event callback, a
  generator-backed workload mix trace).  This is a programming/usage
  error: capturing would produce a snapshot that resumes wrong, so the
  capture refuses up front.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union


class CheckpointError(RuntimeError):
    """Base class for every checkpoint failure."""


class CheckpointCorruptionError(CheckpointError):
    """A snapshot file failed validation and must not be resumed.

    Carries the offending ``path`` and a one-line machine-checkable
    ``reason`` so callers can log structured warnings and fall back to
    re-simulation.
    """

    def __init__(self, path: Union[str, Path], reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(self._describe())

    def _describe(self) -> str:
        return f"corrupt checkpoint {self.path}: {self.reason}"


class CheckpointVersionError(CheckpointCorruptionError):
    """An intact snapshot that another build wrote: an envelope schema
    this build does not read, another ``MODEL_VERSION``, or config keys
    this build does not know.  Refused like damage, but not called
    damage."""

    def _describe(self) -> str:
        return (f"snapshot {self.path} was written by another build: "
                f"{self.reason}")


class CheckpointUnsupportedError(CheckpointError):
    """The live simulator holds state the snapshot codec cannot encode."""
