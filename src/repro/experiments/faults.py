"""Monte Carlo lifetime-to-failure experiment (fault injection).

The headline lifetime numbers elsewhere in the suite are *analytic*:
total wear divided by write rate.  This experiment instead runs the
device to destruction.  With :class:`repro.faults.FaultConfig` attached,
every line's cells age against lognormal endurance draws; exhausted
cells become stuck-at faults that write-verify + SECDED ECC survive
until a line exceeds correction capacity and is retired into the spare
region, and the run ends gracefully when the spares are gone
(``RunResult.uncorrectable``).

Aging is compressed with ``wear_acceleration`` so runs reach
end-of-life inside a simulated window of microseconds; that rescales
every policy's clock identically, so the *ordering* and *ratios* of the
survival times are meaningful even though the absolute numbers are not
device lifetimes.  Slow writes still deposit ``factor**-expo`` of the
damage of a normal write, which is exactly the Mellow Writes trade:
Norm burns its cells fastest, BE-Mellow+SC spends idle bank time on
slow writes and measurably outlives it, and Slow+SC outlives both.

Each (policy, seed) pair is one independent Monte Carlo sample; the
whole grid goes through :meth:`Runner.sweep`, so samples run in
parallel and land in the result cache like any other simulation.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis.report import Table
from repro.experiments.runner import Runner, default_runner
from repro.faults import FaultConfig
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult

#: Policies compared in the survival figure: the fast baseline, the
#: paper's best adaptive mechanism, and the all-slow upper bound.
SURVIVAL_POLICIES: Tuple[str, ...] = ("Norm", "BE-Mellow+SC", "Slow+SC")

DEFAULT_WORKLOAD = "zeusmp"
DEFAULT_SEEDS = 20

#: Window-length factor for the Monte Carlo samples.  Short windows +
#: accelerated aging keep one sample in the hundreds of milliseconds of
#: host time while still reaching end-of-life for the fast policies.
DEFAULT_MC_SCALE = 0.02


def default_fault_config() -> FaultConfig:
    """The accelerated-aging fault model used by the survival figure.

    ``wear_acceleration`` of 5e6 maps the median cell endurance onto a
    handful of writes; 8 spare lines per bank keeps the retirement
    cascade short so the fast policies die inside the window.
    """
    return FaultConfig(
        wear_acceleration=5e6,
        spare_lines_per_bank=8,
        max_write_retries=1,
    )


def survival_configs(
    workload: str = DEFAULT_WORKLOAD,
    policies: Sequence[str] = SURVIVAL_POLICIES,
    seeds: int = DEFAULT_SEEDS,
    faults: Optional[FaultConfig] = None,
    scale: float = DEFAULT_MC_SCALE,
) -> List[SimConfig]:
    """The Monte Carlo grid, ordered policy-major then seed."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    fault_config = faults if faults is not None else default_fault_config()
    base = [
        SimConfig(workload=workload, policy=policy, seed=seed,
                  faults=fault_config)
        for policy in policies
        for seed in range(1, seeds + 1)
    ]
    if scale != 1.0:
        return [config.scaled(scale) for config in base]
    return base


def survival_time_ns(result: RunResult) -> float:
    """One sample's survival time, right-censored for survivors.

    Failed runs report the absolute simulated time of the uncorrectable
    error (warmup included - cells age from the first write).  Runs
    that outlive the window are censored at ``window_ns``, a *lower
    bound* on their survival (it excludes warmup), so every mean below
    understates the advantage of the surviving policies.
    """
    if result.uncorrectable:
        return result.time_to_uncorrectable_ns
    return result.window_ns


def survival_summary(
    runner: Optional[Runner] = None,
    workload: str = DEFAULT_WORKLOAD,
    policies: Sequence[str] = SURVIVAL_POLICIES,
    seeds: int = DEFAULT_SEEDS,
    faults: Optional[FaultConfig] = None,
    scale: float = DEFAULT_MC_SCALE,
    jobs: Optional[int] = None,
    progress: Optional[Callable[..., None]] = None,
) -> Table:
    """Per-policy survival aggregates over the Monte Carlo seeds.

    ``survival_vs_norm`` is each policy's mean survival over Norm's,
    whatever order ``policies`` lists them in; it is ``nan`` only when
    Norm is not among ``policies``.
    """
    runner = runner if runner is not None else default_runner()
    policies = tuple(policies)
    grid = survival_configs(workload, policies, seeds, faults, scale)
    flat = iter(runner.sweep(grid, jobs=jobs, progress=progress))
    by_policy = {
        policy: [next(flat) for _ in range(seeds)] for policy in policies
    }
    table = Table(
        title=f"Lifetime to failure under fault injection "
              f"({workload}, {seeds} seeds)",
        columns=["policy", "failed_runs", "mean_survival_ns",
                 "survival_vs_norm", "mean_first_failure_ns",
                 "mean_lines_retired", "mean_ecc_corrected",
                 "mean_verify_retries"],
    )
    mean_survival = {
        policy: sum(survival_time_ns(r) for r in results) / seeds
        for policy, results in by_policy.items()
    }
    norm_mean = mean_survival.get("Norm")
    for policy in policies:
        results = by_policy[policy]
        failed = sum(1 for r in results if r.uncorrectable)
        first = [r.time_to_first_failure_ns for r in results
                 if r.time_to_first_failure_ns >= 0.0]
        table.add_row(
            policy,
            f"{failed}/{seeds}",
            mean_survival[policy],
            mean_survival[policy] / norm_mean if norm_mean else float("nan"),
            # -1.0 = no cell ever failed, the RunResult sentinel (inf
            # would leak non-standard JSON through --output).
            sum(first) / len(first) if first else -1.0,
            sum(r.lines_retired for r in results) / seeds,
            sum(r.ecc_corrected_writes for r in results) / seeds,
            sum(r.fault_write_retries for r in results) / seeds,
        )
    table.notes.append(
        "survivors are censored at window_ns, so mean_survival_ns "
        "understates the slow policies; times are accelerated-aging "
        "nanoseconds, meaningful as ratios only"
    )
    return table


# ---------------------------------------------------------------------------
# Sharded long-horizon studies: scatter seeds x time slices over the
# worker pool via checkpoints, then merge the right-censored records.
# ---------------------------------------------------------------------------

#: Time slices per Monte Carlo sample in the sharded study.  Each slice
#: is an independently schedulable unit of work: a 1000-seed study with
#: 4 slices spreads 4000 work items over the pool instead of 1000
#: process-pinned runs, so stragglers (slow policies survive longest)
#: stop serializing the tail of the study.
DEFAULT_SLICES = 4

#: figfaults seed count: enough Monte Carlo mass for smooth survival
#: curves with tight Greenwood confidence bands.
FIGFAULTS_SEEDS = 1000

#: Two-sided z for the default 95% confidence bands.
_Z_95 = 1.959963984540054


def sliced_survival_configs(
    workload: str = DEFAULT_WORKLOAD,
    policies: Sequence[str] = SURVIVAL_POLICIES,
    seeds: int = DEFAULT_SEEDS,
    faults: Optional[FaultConfig] = None,
    scale: float = DEFAULT_MC_SCALE,
    slices: int = DEFAULT_SLICES,
) -> List[SimConfig]:
    """The Monte Carlo grid with each run cut into ``slices`` segments.

    ``checkpoint_every`` sits outside the cache key, so these configs
    share cache entries with the unsliced :func:`survival_configs` grid
    bit-for-bit.
    """
    if slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices}")
    grid = survival_configs(workload, policies, seeds, faults, scale)
    if slices == 1:
        return grid
    return [
        replace(config, checkpoint_every=max(
            1, -(-(config.warmup_accesses + config.measure_accesses)
                 // slices)))
        for config in grid
    ]


def survival_records(
    policies: Sequence[str],
    seeds: int,
    results: Sequence[RunResult],
) -> List[Dict[str, Any]]:
    """Merge per-run results into right-censored survival records.

    One record per (policy, seed) in policy-major order - the canonical
    merged form that serial and sharded studies must agree on
    byte-for-byte.  ``observed`` False marks a censored record: the run
    outlived its window, so ``time_ns`` is a lower bound.
    """
    if len(results) != len(policies) * seeds:
        raise ValueError(
            f"expected {len(policies) * seeds} results for "
            f"{len(policies)} policies x {seeds} seeds, got {len(results)}")
    flat = iter(results)
    return [
        {
            "policy": policy,
            "seed": seed,
            "time_ns": survival_time_ns(result),
            "observed": bool(result.uncorrectable),
        }
        for policy in policies
        for seed, result in zip(range(1, seeds + 1), flat)
    ]


def sharded_survival_study(
    runner: Optional[Runner] = None,
    workload: str = DEFAULT_WORKLOAD,
    policies: Sequence[str] = SURVIVAL_POLICIES,
    seeds: int = DEFAULT_SEEDS,
    faults: Optional[FaultConfig] = None,
    scale: float = DEFAULT_MC_SCALE,
    slices: int = DEFAULT_SLICES,
    jobs: Optional[int] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    progress: Optional[Callable[..., None]] = None,
) -> List[Dict[str, Any]]:
    """Run the Monte Carlo grid sharded across processes via checkpoints.

    Returns the merged right-censored survival records in canonical
    (policy-major, seed-ascending) order.  Because every slice chain is
    bit-identical to a straight-through run, these records are
    byte-for-byte those of a serial study over the same grid.
    """
    runner = runner if runner is not None else default_runner()
    policies = tuple(policies)
    grid = sliced_survival_configs(workload, policies, seeds, faults,
                                   scale, slices)
    results = runner.sweep(
        grid, jobs=jobs, progress=progress,
        checkpoint_dir=None if checkpoint_dir is None
        else Path(checkpoint_dir))
    return survival_records(policies, seeds, results)


def kaplan_meier(
    records: Sequence[Dict[str, Any]],
    z: float = _Z_95,
) -> List[Tuple[float, float, float, float]]:
    """Kaplan-Meier survival steps with Greenwood confidence bands.

    Input records need ``time_ns`` and ``observed`` keys (censored
    records count toward the at-risk set until their censoring time but
    contribute no step).  Returns ``(time_ns, survival, lo, hi)`` rows,
    one per distinct event time, bands clamped to [0, 1].
    """
    ordered = sorted(records, key=lambda r: (r["time_ns"],
                                             not r["observed"]))
    at_risk = len(ordered)
    survival = 1.0
    greenwood = 0.0   # running sum of d / (n * (n - d))
    curve: List[Tuple[float, float, float, float]] = []
    index = 0
    while index < len(ordered):
        time_ns = ordered[index]["time_ns"]
        events = 0
        removed = 0
        # Ties group at exactly equal recorded times; a tolerance would
        # merge distinct failure events into one Kaplan-Meier step.
        while (index < len(ordered)
               and ordered[index]["time_ns"] == time_ns):   # simlint: ignore[SIM004]
            events += int(ordered[index]["observed"])
            removed += 1
            index += 1
        if events and at_risk:
            survival *= 1.0 - events / at_risk
            if at_risk > events:
                greenwood += events / (at_risk * (at_risk - events))
            half_width = (z * survival * math.sqrt(greenwood)
                          if survival > 0.0 else 0.0)
            curve.append((
                time_ns, survival,
                max(0.0, survival - half_width),
                min(1.0, survival + half_width),
            ))
        at_risk -= removed
    return curve


def km_median_survival_ns(
        curve: Sequence[Tuple[float, float, float, float]]) -> float:
    """First event time where S(t) drops to 0.5 or below; -1.0 when the
    curve never gets there (more than half the runs were censored)."""
    for time_ns, survival, _lo, _hi in curve:
        if survival <= 0.5:
            return time_ns
    return -1.0


def survival_curve_table(
    records: Sequence[Dict[str, Any]],
    policies: Sequence[str] = SURVIVAL_POLICIES,
    workload: str = DEFAULT_WORKLOAD,
) -> Table:
    """Per-policy Kaplan-Meier summary with 95% confidence bands."""
    by_policy: Dict[str, List[Dict[str, Any]]] = {p: [] for p in policies}
    for record in records:
        by_policy[record["policy"]].append(record)
    seeds = max((len(rows) for rows in by_policy.values()), default=0)
    table = Table(
        title=f"Kaplan-Meier survival under fault injection "
              f"({workload}, {seeds} seeds, 95% bands)",
        columns=["policy", "n", "failed", "censored", "median_survival_ns",
                 "mean_survival_ns", "km_s_end", "ci_low", "ci_high"],
    )
    for policy in policies:
        rows = by_policy[policy]
        curve = kaplan_meier(rows)
        failed = sum(1 for r in rows if r["observed"])
        mean = (sum(r["time_ns"] for r in rows) / len(rows)
                if rows else -1.0)
        if curve:
            _t, s_end, lo, hi = curve[-1]
        else:
            s_end, lo, hi = 1.0, 1.0, 1.0
        table.add_row(
            policy, len(rows), failed, len(rows) - failed,
            km_median_survival_ns(curve), mean, s_end, lo, hi,
        )
    table.notes.append(
        "km_s_end is the Kaplan-Meier survival estimate at the last "
        "observed failure, with Greenwood 95% bands; censored runs "
        "(survivors) bound the curve from below"
    )
    return table


def figfaults_survival(runner: Optional[Runner] = None,
                       workloads: Optional[Sequence[str]] = None) -> Table:
    """Figure-registry entry point (first workload only, if given).

    A 1000-seed sharded survival study: seeds x time slices scatter over
    the worker pool via checkpoints, and the merged records feed the
    Kaplan-Meier summary with confidence bands.  All 3000 samples land
    in the result cache, so regeneration is incremental.
    """
    workload = workloads[0] if workloads else DEFAULT_WORKLOAD
    records = sharded_survival_study(
        runner=runner, workload=workload, seeds=FIGFAULTS_SEEDS)
    return survival_curve_table(records, workload=workload)
