"""System configuration: one object describing a complete simulation run."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple, Union

from repro import params
from repro.core.policies import WritePolicy, parse_policy
from repro.faults.config import FaultConfig


#: SimConfig fields deliberately OUTSIDE cache_key().  Every entry must
#: state why the field cannot affect results.  tests/test_cache_key.py
#: perturbs every field and fails if a field neither moves the digest nor
#: is listed here, and also if an entry goes stale (no such field) or
#: contradicts the key (listed AND moves the digest).  Observe-only knobs
#: live here so traced, sanitized and plain runs share cache entries
#: bit-for-bit.
CACHE_KEY_EXCLUDED = {
    "sanitize": "runtime sanitizer is read-only; sanitized runs are "
                "bit-identical to plain runs and share cache entries",
    "telemetry": "telemetry is observe-only; traced runs are "
                 "bit-identical to untraced ones",
    "telemetry_dir": "output location of the telemetry bundle, not an "
                     "input to the simulation",
    "telemetry_trace_capacity": "ring-buffer size only bounds how much "
                                "trace is kept, never what is simulated",
    "checkpoint_every": "slicing a run into checkpointed segments is "
                        "bit-identical to running straight through "
                        "(tests/test_checkpoint.py), so sliced and "
                        "unsliced runs share cache entries",
    "checkpoint_dir": "output location for snapshot files, not an "
                      "input to the simulation",
}


def digest_for_key(key: Any) -> str:
    """Stable hex digest of a cache key.

    The key is serialised as canonical JSON (tuples and lists hash alike),
    so the digest is identical across processes and Python versions -
    unlike ``repr``-based hashing, which would couple cache identity to
    object formatting.  Parallel sweep workers rely on this to agree with
    the parent process on cache file names.
    """
    payload = json.dumps(key, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:24]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulation run.

    Attributes mirror Tables I-III; the window lengths control how many LLC
    accesses are warmed up and measured (the stand-in for the paper's
    6B-warmup / 2B-detail instruction windows).
    """

    workload: str
    policy: Union[str, WritePolicy] = "Norm"
    slow_factor: float = params.SLOW_FACTOR_DEFAULT
    num_banks: int = params.DEFAULT_BANKS
    num_ranks: int = params.DEFAULT_RANKS
    expo_factor: float = params.EXPO_FACTOR_DEFAULT
    capacity_bytes: int = params.MEMORY_CAPACITY_BYTES
    warmup_accesses: int = 30_000
    measure_accesses: int = 120_000
    functional_warmup_max: int = 600_000   # untimed LLC pre-fill cap
    functional_warmup_occupancy: float = 0.95
    seed: int = 1
    eager_scan_interval_ns: float = 60.0
    sample_period_ns: float = params.PROFILE_PERIOD_NS
    target_lifetime_years: float = params.TARGET_LIFETIME_YEARS
    ratio_quota: float = params.RATIO_QUOTA
    energy_cell: str = params.DEFAULT_ENERGY_CELL
    llc_size_bytes: int = params.LLC_SIZE_BYTES
    llc_assoc: int = params.LLC_ASSOC
    useless_threshold: float = params.USELESS_THRESHOLD_RATIO
    leveling_efficiency: float = params.START_GAP_EFFICIENCY
    eager_selector: str = "stack"          # or "deadblock" (extension)
    flip_n_write: bool = False             # Flip-N-Write wear limiting
    cancel_threshold: float = 0.5          # no cancel beyond this progress
    eager_idle_max_accesses: int = 2       # LLC-busy gate for eager scans
    dram_buffer_entries: int = 0           # DRAM write-coalescing buffer
    page_policy: str = "open"              # or "closed" (sensitivity knob)
    read_scheduler: str = "fcfs"           # or "frfcfs" (row hits first)
    # Arm the runtime invariant sanitizer (repro.sim.sanitize) for this
    # run.  Deliberately NOT part of cache_key(): the sanitizer is
    # read-only, so sanitized and unsanitized runs produce bit-identical
    # results and share cache entries.
    sanitize: bool = False
    # Telemetry (repro.telemetry): observe-only like the sanitizer, so
    # all three fields are excluded from cache_key() and traced runs
    # share cache entries with untraced ones.  ``telemetry_dir`` is where
    # the bundle is written at end of run (None = caller handles output,
    # e.g. the Runner picks <cache_dir>/<digest>.telemetry).
    telemetry: bool = False
    telemetry_dir: Optional[str] = None
    telemetry_trace_capacity: int = 65536
    # Checkpoint/resume (repro.checkpoint).  ``checkpoint_every`` pauses
    # the run at an event boundary every N processed LLC accesses;
    # ``checkpoint_dir`` is where the paused run drops snapshot files
    # (None = pause without persisting, so a caller holding the system
    # can capture it itself).  Both are single-run knobs: a sweep runs
    # every miss straight through.  Sliced runs are bit-identical to
    # straight-through ones, so neither knob enters cache_key().
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    # Fault injection (repro.faults).  None (the default) disables the
    # subsystem entirely; disabled runs are bit-identical to a build
    # without it, and cache_key() only grows the fault term when this is
    # set, so pre-existing cache digests never change.
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        if self.warmup_accesses < 0 or self.measure_accesses < 1:
            raise ValueError("need warmup >= 0 and measure >= 1 accesses")
        if self.num_banks % self.num_ranks:
            raise ValueError("banks must divide evenly across ranks")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 when set")

    @property
    def write_policy(self) -> WritePolicy:
        if isinstance(self.policy, WritePolicy):
            if self.policy.slow_factor != self.slow_factor:
                return self.policy.with_slow_factor(self.slow_factor)
            return self.policy
        return parse_policy(self.policy, self.slow_factor)

    @property
    def policy_name(self) -> str:
        if isinstance(self.policy, WritePolicy):
            return self.policy.name
        return self.policy

    def scaled(self, fraction: float) -> "SimConfig":
        """A cheaper copy with window lengths scaled by ``fraction``."""
        if fraction <= 0:
            raise ValueError("fraction must be positive")
        return replace(
            self,
            warmup_accesses=max(1000, int(self.warmup_accesses * fraction)),
            measure_accesses=max(2000, int(self.measure_accesses * fraction)),
        )

    def cache_key(self) -> Tuple[Any, ...]:
        """Hashable identity for result caching."""
        key: Tuple[Any, ...] = (
            self.workload, self.policy_name, self.slow_factor,
            self.num_banks, self.num_ranks, self.expo_factor,
            self.capacity_bytes, self.warmup_accesses,
            self.measure_accesses, self.seed, self.eager_scan_interval_ns,
            self.sample_period_ns, self.target_lifetime_years,
            self.ratio_quota, self.energy_cell, self.llc_size_bytes,
            self.llc_assoc, self.useless_threshold,
            self.leveling_efficiency, self.eager_selector,
            self.flip_n_write, self.cancel_threshold,
            self.eager_idle_max_accesses, self.functional_warmup_max,
            self.functional_warmup_occupancy, self.dram_buffer_entries,
            self.page_policy, self.read_scheduler,
        )
        if self.faults is not None:
            # Appended only when enabled: the default key (and therefore
            # every pre-fault cache digest) stays byte-identical.
            key = key + (self.faults.key(),)
        return key

    def cache_digest(self) -> str:
        """Filename-safe digest of :meth:`cache_key` (see digest_for_key)."""
        return digest_for_key(self.cache_key())

    def warm_key(self) -> Tuple[Any, ...]:
        """Exactly the fields functional warm-up reads.

        Configs with equal warm keys leave the trace, the LLC and the DRAM
        write buffer in the same state after
        :meth:`~repro.sim.system.System._functional_warmup`, so a sweep
        warms each key once and restores that state into every run that
        shares it.  ``tests/test_warm_key.py`` perturbs every field to
        keep this list complete.
        """
        return (
            self.workload, self.seed, self.llc_size_bytes, self.llc_assoc,
            self.functional_warmup_max, self.functional_warmup_occupancy,
            self.dram_buffer_entries,
        )
