"""Seed-stability study: are the conclusions robust to trace randomness?

Synthetic workloads are stochastic, so any single-seed comparison could in
principle be a fluke of one trace realisation.  This study re-runs the
headline comparison (Norm vs BE-Mellow+SC) under several seeds and reports
per-seed ratios plus their spread.  The bench asserts the sign of every
conclusion is seed-independent and the coefficient of variation stays
small - the reproduction's equivalent of error bars.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.analysis.lifetime import capped
from repro.analysis.report import Table
from repro.experiments.runner import Runner, default_runner
from repro.sim.config import SimConfig

DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_WORKLOADS = ("GemsFDTD", "lbm", "milc", "hmmer")


def _stats(values: Sequence[float]):
    mean = sum(values) / len(values)
    if len(values) < 2 or mean == 0:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(variance) / mean


def seed_stability(runner: Optional[Runner] = None,
                   workloads: Sequence[str] = DEFAULT_WORKLOADS,
                   seeds: Sequence[int] = DEFAULT_SEEDS) -> Table:
    runner = runner if runner is not None else default_runner()
    table = Table(
        title="Seed stability: BE-Mellow+SC vs Norm across trace seeds",
        columns=["workload", "ipc_ratio_mean", "ipc_ratio_cv",
                 "lifetime_ratio_mean", "lifetime_ratio_cv", "seeds"],
    )
    results = iter(runner.sweep([
        SimConfig(workload=workload, policy=policy, seed=seed)
        for workload in workloads for seed in seeds
        for policy in ("Norm", "BE-Mellow+SC")
    ]))
    for workload in workloads:
        ipc_ratios = []
        life_ratios = []
        for _seed in seeds:
            base, mellow = next(results), next(results)
            ipc_ratios.append(mellow.ipc / base.ipc)
            life_ratios.append(
                capped(mellow.lifetime_years) / capped(base.lifetime_years)
            )
        ipc_mean, ipc_cv = _stats(ipc_ratios)
        life_mean, life_cv = _stats(life_ratios)
        table.add_row(workload, ipc_mean, ipc_cv, life_mean, life_cv,
                      len(seeds))
    table.notes.append(
        "cv = stddev/mean across seeds; conclusions should hold at every "
        "seed (sign) with small cv (magnitude)"
    )
    return table
