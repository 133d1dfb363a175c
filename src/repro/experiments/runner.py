"""Parallel sweep driver over a concurrency-safe result store.

Figures 10-16 all read the same 11x9 (workload x policy) sweep; the cache
lets each bench regenerate its figure without re-simulating runs another
bench already produced.  Results are stored as versioned JSON entries
(:mod:`repro.store.codec`) keyed by a digest of the full
:class:`SimConfig`, so any parameter change invalidates cleanly.

Where those bytes live is the :mod:`repro.store` layer's business: the
runner talks to one :class:`~repro.store.FileStore` - the cache
directory, or a temporary one that dies with the store when caching is
disabled.  The store is the only place a result lives, and the digest
the only identity the runner uses, so a fresh process finds exactly the
results this one would.

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
* ``REPRO_NO_CACHE=1``  - nothing persists (a :class:`MemoryStore`
  over a temporary directory, deleted with the store or at exit, is
  injected in place of the cache directory).
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.sim.system import System, run_simulation
from repro.store import (
    CacheEntryError,
    FileStore,
    entry_from_json,
    entry_to_json,
    resolve_store,
    result_from_dict,
    result_to_dict,
)
from repro.telemetry import bundle_is_complete
from repro.workloads.profiles import WORKLOAD_NAMES

__all__ = [
    "ProgressCallback",
    "Runner",
    "SweepProgress",
    "default_jobs",
    "default_runner",
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


def _warm_state(config: SimConfig) -> bytes:
    """Sweep worker entry point: functional warm-up for a warm key.

    Returns the :func:`~repro.checkpoint.capture_warm` state, pickled
    into one ``bytes`` blob, that every run sharing
    ``config.warm_key()`` restores instead of warming up itself.
    """
    from repro.checkpoint import capture_warm
    system = System(config)
    system._functional_warmup()
    blob = pickle.dumps(capture_warm(system), pickle.HIGHEST_PROTOCOL)
    system.release()
    return blob


def _simulate(config: SimConfig, warm: Optional[bytes] = None) -> dict:
    """Sweep worker entry point: run one config straight through.

    The run warms up by restoring ``warm`` (a :func:`_warm_state` blob)
    when one is given.  ``checkpoint_every`` and ``checkpoint_dir`` are
    dropped: a sweep runs each miss whole and writes no snapshot, which
    is bit-identical to pausing along the way (the checkpoint
    equivalence contract).  The result travels as a plain dict, exactly
    what the parent writes to the store; the parent process owns all
    store traffic.  Telemetry is the one exception: the run writes its
    bundle into ``telemetry_dir`` (atomically, manifest last), which is
    the store's bundle directory.
    """
    system = System(replace(config, checkpoint_every=None,
                            checkpoint_dir=None))
    system.start_run(None if warm is None else pickle.loads(warm))
    return result_to_dict(system.continue_run())


class Runner:
    """Runs configs through the simulator, caching results in a store."""

    def __init__(self, cache_dir: Optional[Path] = None,
                 store: Optional[FileStore] = None) -> None:
        if store is None:
            store = resolve_store(cache_dir=cache_dir)
        self.store = store
        self.simulated = 0
        self.cache_hits = 0

    def _with_telemetry_dir(self, config: SimConfig) -> SimConfig:
        """Give a telemetry-enabled config a concrete output directory.

        Filling the default in here (rather than inside the simulator)
        keeps telemetry bundles keyed by the cache digest of the same
        run.  ``telemetry_dir`` is not part of cache_key(), so this
        substitution never changes cache identity.
        """
        if config.telemetry and config.telemetry_dir is None:
            return replace(config, telemetry_dir=str(
                self.store.bundle_dir(config.cache_digest())))
        return config

    def _telemetry_satisfied(self, config: SimConfig) -> bool:
        """Whether a cached result alone satisfies this config.

        A telemetry-enabled config also needs a complete bundle in its
        ``telemetry_dir``; if it is missing, the run re-simulates
        (producing a bit-identical result, since telemetry never perturbs
        the simulation) purely to regenerate the bundle.
        """
        if not config.telemetry or config.telemetry_dir is None:
            return True
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

    def _store_result(self, config: SimConfig, result: RunResult) -> None:
        self.store.put(config.cache_digest(),
                       entry_to_json(config, result).encode("utf-8"))

    def _cached(self, config: SimConfig) -> Optional[RunResult]:
        """The store result satisfying ``config``, or None on a miss; a
        hit counts in ``cache_hits``."""
        if not self._telemetry_satisfied(config):
            return None
        result = self._load_store(config)
        if result is not None:
            self.cache_hits += 1
        return result

    def run(self, config: SimConfig) -> RunResult:
        config = self._with_telemetry_dir(config)
        result = self._cached(config)
        if result is None:
            result = run_simulation(config)
            self.simulated += 1
            self._store_result(config, result)
        return result

    def run_traced(self, config: SimConfig) -> "tuple[RunResult, Path]":
        """Run with telemetry forced on; returns (result, bundle dir).

        The result is bit-identical to an untraced run of the same config
        and shares its cache entry; the second element is the directory
        holding the telemetry bundle (metrics/heatmap/traces/manifest).
        A memory store deletes its bundles when it is collected, so keep
        the runner (or its store) alive while reading the directory.
        """
        config = self._with_telemetry_dir(
            replace(config, telemetry=True))
        result = self.run(config)
        assert config.telemetry_dir is not None
        return result, Path(config.telemetry_dir)

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

        Every miss is one :func:`_simulate` task that runs its config
        straight through.  A config's ``checkpoint_every`` and
        ``checkpoint_dir`` are ignored: they are the single-run knobs
        behind ``repro run --checkpoint-every/--checkpoint-dir``, and a
        pause changes no result (``tests/test_checkpoint.py``), so
        neither results nor cache entries depend on them.

        Functional warm-up depends only on :meth:`SimConfig.warm_key`, not
        on the write policy.  When two or more misses share a warm key
        and their workload is a profile (a mix's trace cannot be
        captured), one :func:`_warm_state` task warms up once and each of
        those runs restores its state, which is bit-identical to warming
        up (``tests/test_golden_sweep.py``).
        Warm states live only for the sweep, as ``bytes`` in this process;
        on the pool at most ``jobs`` warm-ups are outstanding at once.

        ``apply_env_scale=False`` skips the ``REPRO_SCALE`` rescaling:
        callers that computed digests from the configs *as given* need
        execution and identity to agree even when the environment
        carries a scale override.
        """
        factor = scale_factor() if apply_env_scale else 1.0
        configs = [self._with_telemetry_dir(
            c.scaled(factor) if factor != 1.0 else c) for c in configs]
        total = len(configs)
        jobs = default_jobs() if jobs is None else max(1, jobs)
        results: Dict[int, RunResult] = {}

        def report(index: int, result: RunResult, from_cache: bool) -> None:
            results[index] = result
            if progress is not None:
                progress(SweepProgress(
                    completed=len(results), total=total,
                    config=configs[index], result=result,
                    from_cache=from_cache,
                ))

        # Resolve store hits up front; group the misses by cache digest
        # (plus telemetry destination - a traced and an untraced grid
        # point share a result but not a bundle) so duplicate grid points
        # cost one simulation.
        misses: Dict[tuple, List[int]] = {}
        for i, config in enumerate(configs):
            group = (config.cache_digest(), config.telemetry,
                     config.telemetry_dir)
            if group in misses:
                misses[group].append(i)
                continue
            cached = self._cached(config)
            if cached is None:
                misses[group] = [i]
            else:
                report(i, cached, from_cache=True)

        runs = list(misses.values())
        lead = [configs[indices[0]] for indices in runs]
        # Runs sharing a warm key, in run order; singletons warm up alone.
        warm_keys: Dict[tuple, List[int]] = {}
        for run, config in enumerate(lead):
            if config.workload in WORKLOAD_NAMES:
                warm_keys.setdefault(config.warm_key(), []).append(run)
        warm_groups = [group for group in warm_keys.values()
                       if len(group) > 1]
        group_of = {run: number for number, group in enumerate(warm_groups)
                    for run in group}

        def warm_config(number: int) -> SimConfig:
            """The config warm group ``number`` warms up under."""
            return lead[warm_groups[number][0]]

        def settle(run: int, payload: dict) -> None:
            """Store and report one finished run."""
            result = result_from_dict(payload)
            self.simulated += 1
            self._store_result(lead[run], result)
            for j, index in enumerate(runs[run]):
                if j:
                    self.cache_hits += 1
                report(index, result, from_cache=bool(j))

        if len(runs) <= 1 or jobs <= 1:
            blobs: Dict[int, bytes] = {}
            for run in range(len(runs)):
                warm = None
                number = group_of.get(run)
                if number is not None:
                    if number not in blobs:
                        blobs[number] = _warm_state(warm_config(number))
                    warm = blobs[number]
                    if run == warm_groups[number][-1]:
                        del blobs[number]
                settle(run, _simulate(lead[run], warm))
        else:
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(runs))) as pool:
                # A future maps to ("warm", group) or ("run", run).
                futures: Dict[Future, Tuple[str, int]] = {}
                # At most ``jobs`` warm-ups are outstanding: the next one
                # goes out when a blob arrives, behind that blob's runs,
                # so the pool cannot finish every warm-up first and leave
                # this process holding every blob at once.
                unwarmed = iter(range(len(warm_groups)))

                def submit_warm_up() -> None:
                    number = next(unwarmed, None)
                    if number is not None:
                        futures[pool.submit(
                            _warm_state, warm_config(number))] = (
                            "warm", number)

                for _ in range(min(jobs, len(warm_groups))):
                    submit_warm_up()
                futures.update(
                    (pool.submit(_simulate, lead[run]), ("run", run))
                    for run in range(len(runs)) if run not in group_of)
                while futures:
                    done, _pending = wait(futures,
                                          return_when=FIRST_COMPLETED)
                    for future in done:
                        kind, index = futures.pop(future)
                        if kind == "warm":
                            blob = future.result()
                            futures.update(
                                (pool.submit(_simulate, lead[run], blob),
                                 ("run", run))
                                for run in warm_groups[index])
                            submit_warm_up()
                        else:
                            settle(index, future.result())

        return [results[i] for i in range(total)]

    def sweep_sliced(self, configs: Iterable[SimConfig],
                     jobs: Optional[int] = None,
                     apply_env_scale: bool = True,
                     checkpoint_dir: Optional[Path] = None,
                     ) -> List[RunResult]:
        """:meth:`sweep` under the name ``bench/workloads.py`` still
        calls; ``checkpoint_dir`` is ignored.  The benchmark-upkeep item
        in ROADMAP.md deletes this with the next change to the
        benchmark, whose files change only together."""
        return self.sweep(configs, jobs=jobs,
                          apply_env_scale=apply_env_scale)


_default_runner: Optional[Runner] = None


def default_runner() -> Runner:
    global _default_runner
    if _default_runner is None:
        _default_runner = Runner()
    return _default_runner
