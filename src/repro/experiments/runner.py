"""Parallel sweep driver over a concurrency-safe result store.

Figures 10-16 all read the same 11x9 (workload x policy) sweep; the cache
lets each bench regenerate its figure without re-simulating runs another
bench already produced.  Results are stored as versioned JSON entries
(:mod:`repro.store.codec`) keyed by a digest of the full
:class:`SimConfig`, so any parameter change invalidates cleanly.

Where those bytes live is the :mod:`repro.store` layer's business: the
runner talks to one :class:`~repro.store.Store` - a directory of files,
or an in-memory dict when caching is disabled.  Backend choice never
enters a cache key, so the same config yields bit-identical entries in
either backend.

:meth:`Runner.sweep` fans cache misses out over a
``concurrent.futures.ProcessPoolExecutor``.  Each run is seeded entirely by
its config, so parallel results are bit-identical to serial ones; workers
return plain dicts and the parent process owns all store traffic.  Entry
commits are atomic (write-to-temp + ``os.replace``) so concurrent sweeps
sharing one cache directory can never expose a half-written entry, and
any unreadable entry - truncated JSON, schema drift, a stale
pre-versioning file - logs a warning and falls back to re-simulation
instead of crashing.

Environment knobs:

* ``REPRO_SCALE``       - scale factor on window lengths (default 1.0;
  benches use ~0.25 for quick runs).
* ``REPRO_JOBS``        - worker processes for sweeps (default: all cores).
* ``REPRO_WORKLOADS``   - comma-separated subset of workloads to sweep.
* ``REPRO_CACHE_DIR``   - cache directory (default ``.repro_cache``;
  see ``docs/storage.md``).
* ``REPRO_NO_CACHE=1``  - nothing persists (an in-memory store is
  injected in place of the configured backend).
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                as_completed, wait)
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

# Serialisation lives in repro.store.codec these days; re-exported here
# because this module is the historic home every caller imports from.
from repro.sim.config import SimConfig, digest_for_key  # noqa: F401  (re-export)
from repro.sim.stats import RunResult
from repro.sim.system import run_simulation
from repro.store import (
    CACHE_SCHEMA_VERSION,
    CacheEntryError,
    Store,
    atomic_write_text,
    cache_clear,
    cache_stats,
    cache_verify,
    entry_from_json,
    entry_to_json,
    export_bundle_dir,
    read_bundle_dir,
    resolve_store,
    result_from_dict,
    result_to_dict,
)
from repro.telemetry import bundle_is_complete
from repro.workloads.profiles import WORKLOAD_NAMES

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntryError",
    "ProgressCallback",
    "Runner",
    "SweepProgress",
    "atomic_write_text",
    "cache_clear",
    "cache_stats",
    "cache_verify",
    "default_jobs",
    "default_runner",
    "entry_from_json",
    "entry_to_json",
    "result_from_dict",
    "result_to_dict",
    "scale_factor",
    "selected_workloads",
]

logger = logging.getLogger(__name__)


def scale_factor() -> float:
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def default_jobs() -> int:
    """Worker count for parallel sweeps (``REPRO_JOBS``, default all cores)."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def selected_workloads(default: Optional[Sequence[str]] = None) -> List[str]:
    env = os.environ.get("REPRO_WORKLOADS")
    if env:
        names = [n.strip() for n in env.split(",") if n.strip()]
        unknown = set(names) - set(WORKLOAD_NAMES)
        if unknown:
            raise ValueError(f"unknown workloads in REPRO_WORKLOADS: {unknown}")
        return names
    return list(default if default is not None else WORKLOAD_NAMES)


@dataclass(frozen=True)
class SweepProgress:
    """One per-run completion report delivered to a sweep's callback."""

    completed: int
    total: int
    config: SimConfig
    result: RunResult
    from_cache: bool


ProgressCallback = Callable[[SweepProgress], None]


def _simulate_to_dict(config: SimConfig) -> dict:
    """Worker entry point: simulate and return a plain-dict result.

    Returning a dict (rather than a RunResult) keeps the IPC payload
    decoupled from dataclass layout and is exactly what the parent writes
    to the store; the parent process owns all store traffic.  Telemetry is
    the one exception: when the config carries a ``telemetry_dir`` the
    worker writes the bundle itself at end of run (atomically, manifest
    last) - for the file backend that directory *is* the stored bundle,
    for the memory backend the parent ingests it afterwards.
    """
    return result_to_dict(run_simulation(config))


def _advance_slice(config: SimConfig, snapshot_path: Optional[str],
                   next_snapshot_path: str) -> tuple:
    """Worker entry point for sliced sweeps: run one checkpoint segment.

    The first slice of a run starts from the config; later slices resume
    from the snapshot the previous slice (possibly in a *different*
    process) wrote.  Returns ``("pending", path)`` after writing the next
    snapshot, or ``("done", result_dict)`` when the run completed.

    A snapshot that fails validation - truncated, bit-flipped, or from a
    mismatched environment - is not fatal: the worker warns and
    re-simulates the whole run from scratch, which is bit-identical to
    the interrupted one (the checkpoint equivalence contract), exactly
    like the store layer's unreadable-entry fallback.
    """
    from repro.checkpoint import CheckpointError, restore_system, save_snapshot
    from repro.sim.system import System

    if snapshot_path is None:
        system = System(config)
        system.start_run()
    else:
        try:
            system = restore_system(snapshot_path)
        except (CheckpointError, FileNotFoundError, OSError) as error:
            logger.warning(
                "snapshot %s unusable (%s); re-simulating from scratch",
                snapshot_path, error)
            return ("done", _simulate_to_dict(config))
    result = system.continue_run()
    if result is None:
        save_snapshot(system, next_snapshot_path)
        outcome: tuple = ("pending", next_snapshot_path)
    else:
        outcome = ("done", result_to_dict(result))
    system.release()
    return outcome


class Runner:
    """Runs configs through the simulator with memo + store caching."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 store: Optional[Store] = None) -> None:
        if store is None:
            store = resolve_store(cache_dir=cache_dir)
        self.store = store
        # Kept for file-backend introspection (tests, legacy tooling);
        # None whenever entries do not live in a directory.
        self.cache_dir: Optional[Path] = getattr(store, "root", None)
        self._memo: Dict[tuple, RunResult] = {}
        self.simulated = 0
        self.cache_hits = 0

    def _path_for(self, config: SimConfig) -> Path:
        path = self.store.entry_path(config.cache_digest())
        if path is None:
            raise RuntimeError(
                f"{self.store.kind} store keeps entries internally; "
                "there is no per-entry file path")
        return path

    def _telemetry_path(self, config: SimConfig) -> Path:
        """Default telemetry bundle location for this store.

        Filesystem-native backends expose the bundle's real home
        (zero-copy: the simulator writes the bundle in place); all others
        get a per-store staging directory whose bundles are ingested via
        :meth:`Store.put_bundle` after the run.
        """
        digest = config.cache_digest()
        native = self.store.bundle_path(digest)
        if native is not None:
            return native
        return self.store.staging_root() / f"{digest}.telemetry"

    def _with_telemetry_dir(self, config: SimConfig) -> SimConfig:
        """Give a telemetry-enabled config a concrete output directory.

        Filling the default in here (rather than inside the simulator)
        keeps telemetry bundles keyed by the cache digest of the same
        run.  ``telemetry_dir`` is not part of cache_key(), so this
        substitution never changes cache identity.
        """
        if config.telemetry and config.telemetry_dir is None:
            return replace(
                config, telemetry_dir=str(self._telemetry_path(config)))
        return config

    def _telemetry_satisfied(self, config: SimConfig) -> bool:
        """Whether a cached result alone satisfies this config.

        A telemetry-enabled config also needs a complete bundle; if it is
        missing, the run re-simulates (producing a bit-identical result,
        since telemetry never perturbs the simulation) purely to
        regenerate the bundle.  Runner-managed destinations defer to the
        store (which may hold the bundle internally); a user-chosen
        ``telemetry_dir`` must be complete on disk where the user asked.
        """
        if not config.telemetry or config.telemetry_dir is None:
            return True
        if config.telemetry_dir == str(self._telemetry_path(config)):
            return self.store.has_bundle(config.cache_digest())
        return bundle_is_complete(Path(config.telemetry_dir))

    def _load_store(self, config: SimConfig) -> Optional[RunResult]:
        """Fetch from the store; any unreadable entry warns and reads as
        a miss."""
        digest = config.cache_digest()
        try:
            data = self.store.get(digest)
        except OSError as error:
            logger.warning("cache read failed for %s (%s); re-simulating",
                           self.store.location(digest), error)
            return None
        if data is None:
            return None
        try:
            return entry_from_json(data.decode("utf-8"))
        except (CacheEntryError, UnicodeDecodeError) as error:
            logger.warning("discarding cache entry %s (%s); re-simulating",
                           self.store.location(digest), error)
            self.store.delete(digest)
            return None

    def _ingest_bundle(self, config: SimConfig) -> None:
        """Commit a freshly simulated staging bundle into the store.

        No-op for filesystem-native backends (the simulator already wrote
        the bundle into the store's own layout) and for user-chosen
        destinations (the bundle stays where the user asked).
        """
        if not config.telemetry or config.telemetry_dir is None:
            return
        digest = config.cache_digest()
        if self.store.bundle_path(digest) is not None:
            return
        if config.telemetry_dir != str(self._telemetry_path(config)):
            return
        files = read_bundle_dir(Path(config.telemetry_dir))
        if files is not None:
            self.store.put_bundle(digest, files)

    def _store_result(self, config: SimConfig, result: RunResult) -> None:
        self._memo[config.cache_key()] = result
        self.store.put(config.cache_digest(),
                       entry_to_json(config, result).encode("utf-8"))
        self._ingest_bundle(config)

    def run(self, config: SimConfig) -> RunResult:
        config = self._with_telemetry_dir(config)
        key = config.cache_key()
        if self._telemetry_satisfied(config):
            if key in self._memo:
                self.cache_hits += 1
                return self._memo[key]
            result = self._load_store(config)
            if result is not None:
                self._memo[key] = result
                self.cache_hits += 1
                return result
        result = run_simulation(config)
        self.simulated += 1
        self._store_result(config, result)
        return result

    def run_traced(self, config: SimConfig) -> "tuple[RunResult, Path]":
        """Run with telemetry forced on; returns (result, bundle dir).

        The result is bit-identical to an untraced run of the same config
        and shares its cache entry; the second element is the directory
        holding the telemetry bundle (metrics/heatmap/traces/manifest).
        A backend that keeps bundles internally (memory) exports the
        stored bundle into the returned directory on cache hits, so the
        caller always finds real files there.
        """
        config = self._with_telemetry_dir(
            replace(config, telemetry=True))
        result = self.run(config)
        assert config.telemetry_dir is not None
        bundle_dir = Path(config.telemetry_dir)
        if not bundle_is_complete(bundle_dir):
            files = self.store.get_bundle(config.cache_digest())
            if files is not None:
                export_bundle_dir(files, bundle_dir)
        return result, bundle_dir

    def scaled(self, config: SimConfig) -> RunResult:
        """Run with window lengths scaled by REPRO_SCALE."""
        return self.run(self._scaled_config(config))

    def _scaled_config(self, config: SimConfig) -> SimConfig:
        factor = scale_factor()
        if factor != 1.0:
            config = config.scaled(factor)
        return config

    def sweep(self, configs: Iterable[SimConfig],
              jobs: Optional[int] = None,
              progress: Optional[ProgressCallback] = None,
              apply_env_scale: bool = True,
              ) -> List[RunResult]:
        """Run a grid of configs, fanning cache misses out over processes.

        Results come back in input order and are bit-identical to a serial
        sweep: every run is deterministic given its config, and duplicate
        configs in the grid simulate once.  ``jobs`` defaults to
        ``REPRO_JOBS`` (or all cores); ``progress`` receives one
        :class:`SweepProgress` per completed run.

        ``apply_env_scale=False`` skips the ``REPRO_SCALE`` rescaling:
        callers that computed digests from the configs *as given* need
        execution and identity to agree even when the environment
        carries a scale override.
        """
        if apply_env_scale:
            configs = [self._scaled_config(c) for c in configs]
        configs = [self._with_telemetry_dir(c) for c in configs]
        total = len(configs)
        jobs = default_jobs() if jobs is None else max(1, jobs)
        results: Dict[int, RunResult] = {}
        completed = 0

        def report(index: int, result: RunResult, from_cache: bool) -> None:
            nonlocal completed
            completed += 1
            if progress is not None:
                progress(SweepProgress(
                    completed=completed, total=total, config=configs[index],
                    result=result, from_cache=from_cache,
                ))

        # Resolve memo/store hits up front; group the misses by cache key
        # (plus telemetry destination - a traced and an untraced grid
        # point share a result but not a bundle) so duplicate grid points
        # cost one simulation.
        miss_indices: Dict[tuple, List[int]] = {}
        for i, config in enumerate(configs):
            group = (config.cache_key(), config.telemetry,
                     config.telemetry_dir)
            if group in miss_indices:
                miss_indices[group].append(i)
                continue
            key = config.cache_key()
            if self._telemetry_satisfied(config):
                if key in self._memo:
                    self.cache_hits += 1
                    results[i] = self._memo[key]
                    report(i, results[i], from_cache=True)
                    continue
                cached = self._load_store(config)
                if cached is not None:
                    self._memo[key] = cached
                    self.cache_hits += 1
                    results[i] = cached
                    report(i, cached, from_cache=True)
                    continue
            miss_indices[group] = [i]

        def finish(indices: List[int], result: RunResult) -> None:
            self.simulated += 1
            self._store_result(configs[indices[0]], result)
            for j, index in enumerate(indices):
                if j:
                    self.cache_hits += 1
                results[index] = result
                report(index, result, from_cache=bool(j))

        misses = list(miss_indices.values())
        if len(misses) <= 1 or jobs <= 1:
            for indices in misses:
                finish(indices, run_simulation(configs[indices[0]]))
        else:
            workers = min(jobs, len(misses))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_simulate_to_dict, configs[indices[0]]):
                        indices
                    for indices in misses
                }
                for future in as_completed(futures):
                    finish(futures[future], result_from_dict(future.result()))

        return [results[i] for i in range(total)]

    def sweep_sliced(self, configs: Iterable[SimConfig],
                     jobs: Optional[int] = None,
                     progress: Optional[ProgressCallback] = None,
                     apply_env_scale: bool = True,
                     checkpoint_dir: Optional[Path] = None,
                     ) -> List[RunResult]:
        """Like :meth:`sweep`, but time-slices each run via checkpoints.

        A config carrying ``checkpoint_every`` runs as a chain of
        resumable segments: whichever worker is free picks up the next
        slice from the snapshot the previous slice wrote, so a
        long-horizon study scatters *seeds x time slices* across the
        pool instead of pinning each seed to one process for its whole
        lifetime.  Slicing is bit-identical to straight-through
        execution (``tests/test_checkpoint.py``), so results, cache
        entries, and return order are exactly those of :meth:`sweep` on
        the same grid - configs without ``checkpoint_every`` simply run
        as a single slice.

        Intermediate snapshots live in ``checkpoint_dir`` (a private
        temporary directory by default, removed afterwards); each is
        deleted as soon as its successor slice completes, so disk usage
        stays at one snapshot per in-flight run.
        """
        if apply_env_scale:
            configs = [self._scaled_config(c) for c in configs]
        configs = [self._with_telemetry_dir(c) for c in configs]
        total = len(configs)
        jobs = default_jobs() if jobs is None else max(1, jobs)
        results: Dict[int, RunResult] = {}
        completed = 0

        def report(index: int, result: RunResult, from_cache: bool) -> None:
            nonlocal completed
            completed += 1
            if progress is not None:
                progress(SweepProgress(
                    completed=completed, total=total, config=configs[index],
                    result=result, from_cache=from_cache,
                ))

        miss_indices: Dict[tuple, List[int]] = {}
        for i, config in enumerate(configs):
            group = (config.cache_key(), config.telemetry,
                     config.telemetry_dir)
            if group in miss_indices:
                miss_indices[group].append(i)
                continue
            key = config.cache_key()
            if self._telemetry_satisfied(config):
                if key in self._memo:
                    self.cache_hits += 1
                    results[i] = self._memo[key]
                    report(i, results[i], from_cache=True)
                    continue
                cached = self._load_store(config)
                if cached is not None:
                    self._memo[key] = cached
                    self.cache_hits += 1
                    results[i] = cached
                    report(i, cached, from_cache=True)
                    continue
            miss_indices[group] = [i]

        def finish(indices: List[int], result: RunResult) -> None:
            self.simulated += 1
            self._store_result(configs[indices[0]], result)
            for j, index in enumerate(indices):
                if j:
                    self.cache_hits += 1
                results[index] = result
                report(index, result, from_cache=bool(j))

        misses = list(miss_indices.values())
        own_dir = checkpoint_dir is None
        directory = (Path(tempfile.mkdtemp(prefix="repro-slices-"))
                     if own_dir else Path(checkpoint_dir))
        directory.mkdir(parents=True, exist_ok=True)
        try:
            if len(misses) <= 1 or jobs <= 1:
                # Serial path: still slice through snapshot files so the
                # single-process study exercises the same save/restore
                # chain the pool does.
                for run_number, indices in enumerate(misses):
                    config = configs[indices[0]]
                    previous: Optional[str] = None
                    slice_number = 0
                    while True:
                        slice_number += 1
                        target = directory / self._slice_name(
                            config, run_number, slice_number)
                        status, payload = _advance_slice(
                            config, previous, str(target))
                        if previous is not None:
                            Path(previous).unlink(missing_ok=True)
                        if status == "done":
                            finish(indices, result_from_dict(payload))
                            break
                        previous = payload
            else:
                workers = min(jobs, len(misses))
                slice_counts: Dict[int, int] = {}
                previous_paths: Dict[int, Optional[str]] = {}
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {}
                    for run_number, indices in enumerate(misses):
                        config = configs[indices[0]]
                        slice_counts[run_number] = 1
                        previous_paths[run_number] = None
                        target = directory / self._slice_name(
                            config, run_number, 1)
                        future = pool.submit(_advance_slice, config, None,
                                             str(target))
                        futures[future] = (run_number, indices)
                    while futures:
                        done, _pending = wait(futures,
                                              return_when=FIRST_COMPLETED)
                        for future in done:
                            run_number, indices = futures.pop(future)
                            config = configs[indices[0]]
                            status, payload = future.result()
                            consumed = previous_paths[run_number]
                            if consumed is not None:
                                Path(consumed).unlink(missing_ok=True)
                            if status == "done":
                                finish(indices, result_from_dict(payload))
                                continue
                            previous_paths[run_number] = payload
                            slice_counts[run_number] += 1
                            target = directory / self._slice_name(
                                config, run_number,
                                slice_counts[run_number])
                            next_future = pool.submit(
                                _advance_slice, config, payload,
                                str(target))
                            futures[next_future] = (run_number, indices)
        finally:
            if own_dir:
                shutil.rmtree(directory, ignore_errors=True)

        return [results[i] for i in range(total)]

    @staticmethod
    def _slice_name(config: SimConfig, run_number: int,
                    slice_number: int) -> str:
        return (f"{config.cache_digest()}-{run_number:04d}"
                f"-slice-{slice_number:04d}.ckpt")


_default_runner: Optional[Runner] = None


def default_runner() -> Runner:
    global _default_runner
    if _default_runner is None:
        _default_runner = Runner()
    return _default_runner
