"""Regenerators for every table and figure in the paper's evaluation.

Each ``figNN``/``tabNN`` function runs (or fetches from cache) the
simulations behind one exhibit and returns a :class:`Table` whose rows are
the series the paper plots.  The benchmark harness prints these tables;
EXPERIMENTS.md records them against the paper's published values.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro import params
from repro.analysis.lifetime import (
    best_static_policy,
    capped,
    geomean,
    lifetime_sweep,
    relative_ipcs,
    relative_lifetimes,
)
from repro.analysis.report import Table
from repro.core.policies import PAPER_POLICY_NAMES
from repro.endurance.model import EnduranceModel
from repro.energy.nvsim import table_vi_rows
from repro.experiments.faults import figfaults_survival
from repro.experiments.runner import Runner, default_runner, selected_workloads
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.workloads.profiles import PROFILES

STATIC_FACTORS = (1.0, 1.5, 2.0, 3.0)


def _runner(runner: Optional[Runner]) -> Runner:
    return runner if runner is not None else default_runner()


def _policy_sweep(runner: Runner, workloads: Sequence[str],
                  policies: Sequence[str] = PAPER_POLICY_NAMES,
                  **config_kwargs) -> Dict[str, Dict[str, RunResult]]:
    """{workload: {policy: result}} for the main evaluation matrix.

    The whole grid goes through :meth:`Runner.sweep` in one batch so cache
    misses simulate in parallel (``REPRO_JOBS`` workers).
    """
    grid = [
        SimConfig(workload=workload, policy=policy, **config_kwargs)
        for workload in workloads for policy in policies
    ]
    results = iter(runner.sweep(grid))
    return {
        workload: {policy: next(results) for policy in policies}
        for workload in workloads
    }


def _static_config(workload: str, factor: float, cancellable: bool,
                   eager: bool = False) -> SimConfig:
    """A fixed-latency, fixed-policy configuration (Figures 2 and 19).

    ``factor == 1.0`` is the plain normal-write system (Norm); larger
    factors run every write at that slowdown (Slow at that latency).
    Cancellation applies to whichever speed the writes use.
    """
    if factor == 1.0:
        base = "E-Norm" if eager else "Norm"
        name = base + ("+NC" if cancellable else "")
    else:
        base = "E-Slow" if eager else "Slow"
        name = base + ("+SC" if cancellable else "")
    return SimConfig(workload=workload, policy=name, slow_factor=factor)


def static_policy_label(factor: float, cancellable: bool,
                        eager: bool = False) -> str:
    prefix = "E-" if eager else ""
    wc = "+WC" if cancellable else ""
    return f"{prefix}{factor:.1f}x{wc}"


# ---------------------------------------------------------------------------
# Figure 1 / Section II
# ---------------------------------------------------------------------------

def fig01_endurance_model(latency_points: int = 13) -> Table:
    """Endurance vs write latency for Expo_Factor 1.0..3.0 (analytic)."""
    table = Table(
        title="Figure 1: write latency vs endurance",
        columns=["latency_ns", "slow_factor"] + [
            f"expo_{e}" for e in params.EXPO_FACTORS
        ],
    )
    for i in range(latency_points):
        factor = 1.0 + i * 0.25
        latency = factor * params.T_WP_NORMAL_NS
        endurances = [
            EnduranceModel(expo_factor=e).endurance_at_factor(factor)
            for e in params.EXPO_FACTORS
        ]
        table.add_row(latency, factor, *endurances)
    table.notes.append(
        "anchored at 150 ns -> 5e6 writes; Table II ladder falls on the "
        "expo_2.0 column"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 2 / Figure 3 (motivation)
# ---------------------------------------------------------------------------

def fig02_static_latency(runner: Optional[Runner] = None,
                         workloads: Optional[Sequence[str]] = None) -> Table:
    """IPC and lifetime under static 1.0-3.0x writes, with/without WC."""
    runner = _runner(runner)
    workloads = selected_workloads(workloads)
    table = Table(
        title="Figure 2: static write latencies (normalized IPC, lifetime)",
        columns=["workload", "policy", "ipc", "ipc_vs_norm", "lifetime_years"],
    )
    points = [(factor, cancellable) for factor in STATIC_FACTORS
              for cancellable in (False, True)]
    results = iter(runner.sweep([
        _static_config(workload, factor, cancellable)
        for workload in workloads for factor, cancellable in points
    ]))
    for workload in workloads:
        rows = {point: next(results) for point in points}
        base = rows[(1.0, False)]
        for (factor, cancellable), result in rows.items():
            table.add_row(
                workload,
                static_policy_label(factor, cancellable),
                result.ipc,
                result.ipc / base.ipc,
                capped(result.lifetime_years),
            )
    return table


def fig03_bank_utilization(runner: Optional[Runner] = None,
                           workloads: Optional[Sequence[str]] = None) -> Table:
    """Average bank utilization with normal writes."""
    runner = _runner(runner)
    workloads = selected_workloads(workloads)
    table = Table(
        title="Figure 3: average bank utilization (Norm)",
        columns=["workload", "bank_utilization"],
    )
    results = runner.sweep(
        [SimConfig(workload=workload, policy="Norm") for workload in workloads]
    )
    for workload, result in zip(workloads, results):
        table.add_row(workload, result.bank_utilization)
    return table


# ---------------------------------------------------------------------------
# Table IV (workloads), Table V/VI (energy parameters)
# ---------------------------------------------------------------------------

def tab04_workload_mpki(runner: Optional[Runner] = None,
                        workloads: Optional[Sequence[str]] = None) -> Table:
    runner = _runner(runner)
    workloads = selected_workloads(workloads)
    table = Table(
        title="Table IV: workload MPKI with a 2 MB LLC",
        columns=["workload", "mpki_measured", "mpki_paper"],
    )
    results = runner.sweep(
        [SimConfig(workload=workload, policy="Norm") for workload in workloads]
    )
    for workload, result in zip(workloads, results):
        table.add_row(workload, result.mpki, PROFILES[workload].mpki_paper)
    return table


def tab06_energy_per_op() -> Table:
    table = Table(
        title="Table VI: energy per operation of memristive main memory",
        columns=["cell", "buffer_read_pj", "norm_write_pj", "slow_write_pj",
                 "slow_norm_ratio"],
    )
    for row in table_vi_rows():
        table.add_row(row["cell"], row["buffer_read_pj"],
                      row["norm_write_pj"], row["slow_write_pj"],
                      row["slow_norm_ratio"])
    return table


# ---------------------------------------------------------------------------
# Figures 10-16 (main evaluation)
# ---------------------------------------------------------------------------

def _main_matrix_table(runner: Optional[Runner], workloads,
                       title: str, metric_columns, extract,
                       average: str = "geomean") -> Table:
    runner = _runner(runner)
    workloads = selected_workloads(workloads)
    sweep = _policy_sweep(runner, workloads)
    table = Table(title=title,
                  columns=["workload", "policy"] + list(metric_columns))
    for workload in workloads:
        for policy in PAPER_POLICY_NAMES:
            table.add_row(workload, policy, *extract(sweep[workload], policy))
    # Suite-level summary rows.  Ratios aggregate geometrically (the
    # paper's convention); fractions-of-time aggregate arithmetically
    # (a geomean of values containing zero is always zero).
    label = "GEOMEAN" if average == "geomean" else "MEAN"
    for policy in PAPER_POLICY_NAMES:
        values = []
        for i, _col in enumerate(metric_columns):
            per_wl = [
                extract(sweep[workload], policy)[i] for workload in workloads
            ]
            if average == "geomean":
                values.append(geomean([max(v, 1e-12) for v in per_wl]))
            else:
                values.append(sum(per_wl) / len(per_wl))
        table.add_row(label, policy, *values)
    return table


def fig10_policy_ipc(runner: Optional[Runner] = None,
                     workloads: Optional[Sequence[str]] = None) -> Table:
    def extract(results, policy):
        rel = relative_ipcs(results)
        return (results[policy].ipc, rel[policy])
    return _main_matrix_table(
        runner, workloads, "Figure 10: IPC by write policy",
        ["ipc", "ipc_vs_norm"], extract,
    )


def fig11_policy_lifetime(runner: Optional[Runner] = None,
                          workloads: Optional[Sequence[str]] = None) -> Table:
    def extract(results, policy):
        rel = relative_lifetimes(results)
        return (capped(results[policy].lifetime_years), rel[policy])
    return _main_matrix_table(
        runner, workloads, "Figure 11: resistive memory lifetime (years)",
        ["lifetime_years", "lifetime_vs_norm"], extract,
    )


def fig12_policy_utilization(runner: Optional[Runner] = None,
                             workloads: Optional[Sequence[str]] = None) -> Table:
    def extract(results, policy):
        return (results[policy].bank_utilization,)
    return _main_matrix_table(
        runner, workloads, "Figure 12: average bank utilization by policy",
        ["bank_utilization"], extract, average="mean",
    )


def fig13_write_drain(runner: Optional[Runner] = None,
                      workloads: Optional[Sequence[str]] = None) -> Table:
    def extract(results, policy):
        return (results[policy].drain_fraction,)
    return _main_matrix_table(
        runner, workloads, "Figure 13: fraction of time in write drain",
        ["drain_fraction"], extract, average="mean",
    )


def fig14_llc_requests(runner: Optional[Runner] = None,
                       workloads: Optional[Sequence[str]] = None) -> Table:
    """Memory requests sent by the LLC, normalised to Norm's total."""
    def extract(results, policy):
        result = results[policy]
        base = results["Norm"]
        base_total = base.llc_misses + base.writebacks
        reads = result.llc_misses / base_total
        writes = result.writebacks / base_total
        eager = result.eager_writebacks / base_total
        return (reads, writes, eager, reads + writes + eager)
    return _main_matrix_table(
        runner, workloads,
        "Figure 14: memory requests from LLC (normalized to Norm)",
        ["reads", "writebacks", "eager_writebacks", "total"], extract,
    )


def fig15_bank_requests(runner: Optional[Runner] = None,
                        workloads: Optional[Sequence[str]] = None) -> Table:
    """Requests issued to banks (cancelled re-issues included)."""
    def extract(results, policy):
        result = results[policy]
        base = results["Norm"].requests_issued_total
        return (
            result.reads_issued / base,
            result.writes_issued_total / base,
            result.cancellations / base,
            result.requests_issued_total / base,
        )
    return _main_matrix_table(
        runner, workloads,
        "Figure 15: requests issued to banks (normalized to Norm)",
        ["reads", "writes", "cancelled", "total"], extract,
    )


def fig16_energy(runner: Optional[Runner] = None,
                 workloads: Optional[Sequence[str]] = None) -> Table:
    """Main-memory energy (CellC), normalised to Norm."""
    def extract(results, policy):
        result = results[policy]
        base = results["Norm"].total_energy_pj
        return (
            result.read_energy_pj / base,
            result.write_energy_pj / base,
            result.total_energy_pj / base,
        )
    return _main_matrix_table(
        runner, workloads,
        "Figure 16: main memory energy (CellC, normalized to Norm)",
        ["read_energy", "write_energy", "total_energy"], extract,
    )


# ---------------------------------------------------------------------------
# Figure 17 (Expo_Factor sensitivity)
# ---------------------------------------------------------------------------

def fig17_expo_sensitivity(runner: Optional[Runner] = None,
                           workloads: Optional[Sequence[str]] = None) -> Table:
    """Geomean lifetime vs Norm for each Expo_Factor, per policy.

    Re-evaluated from the recorded write mixes - no re-simulation, because
    write timing is independent of the endurance exponent.
    """
    runner = _runner(runner)
    workloads = selected_workloads(workloads)
    policies = ("Norm", "Slow+SC", "BE-Mellow+SC")
    sweep = _policy_sweep(runner, workloads, policies=policies)
    table = Table(
        title="Figure 17: lifetime sensitivity to Expo_Factor "
              "(geomean lifetime normalized to Norm at the same exponent)",
        columns=["policy"] + [f"expo_{e}" for e in params.EXPO_FACTORS],
    )
    for policy in policies:
        ratios = []
        for expo in params.EXPO_FACTORS:
            per_wl = []
            for workload in workloads:
                base = capped(sweep[workload]["Norm"].lifetime_for_expo(expo))
                mine = capped(sweep[workload][policy].lifetime_for_expo(expo))
                per_wl.append(mine / base)
            ratios.append(geomean(per_wl))
        table.add_row(policy, *ratios)
    table.notes.append(
        "paper: BE-Mellow+SC is still >= 1.47x Norm at Expo_Factor 1.0"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 18 (bank-level-parallelism sensitivity)
# ---------------------------------------------------------------------------

def fig18_bank_sensitivity(runner: Optional[Runner] = None,
                           workload: str = "GemsFDTD") -> Table:
    runner = _runner(runner)
    table = Table(
        title=f"Figure 18: {workload} sensitivity to bank count",
        columns=["banks", "policy", "lifetime_years", "bank_utilization",
                 "eager_writes", "normal_writes_issued",
                 "slow_writes_issued"],
    )
    grid = [
        SimConfig(workload=workload, policy=policy,
                  num_banks=banks, num_ranks=ranks)
        for banks, ranks in params.BANK_OPTIONS
        for policy in ("Norm", "BE-Mellow+SC")
    ]
    for config, result in zip(grid, runner.sweep(grid)):
        table.add_row(
            config.num_banks, config.policy, capped(result.lifetime_years),
            result.bank_utilization, result.eager_issued,
            result.writes_issued_normal, result.writes_issued_slow,
        )
    return table


# ---------------------------------------------------------------------------
# Figure 19 (Mellow Writes vs static policies)
# ---------------------------------------------------------------------------

def fig19_vs_static(runner: Optional[Runner] = None,
                    workloads: Optional[Sequence[str]] = None) -> Table:
    runner = _runner(runner)
    workloads = selected_workloads(workloads)
    table = Table(
        title="Figure 19: BE-Mellow+SC+WQ vs static policies "
              "(8-year lifetime constraint)",
        columns=["workload", "policy", "ipc", "lifetime_years",
                 "meets_8y", "is_best_static", "mellow_vs_best_static"],
    )
    # Per workload: every static point, then the eager variants the
    # paper also evaluates as statics, then BE-Mellow+SC+WQ.
    points = ([(factor, cancellable, False) for factor in STATIC_FACTORS
               for cancellable in (False, True)]
              + [(1.0, True, True), (3.0, True, True)])
    grid = []
    for workload in workloads:
        grid += [_static_config(workload, *point) for point in points]
        grid.append(SimConfig(workload=workload, policy="BE-Mellow+SC+WQ"))
    results = iter(runner.sweep(grid))
    for workload in workloads:
        statics: Dict[str, RunResult] = {
            static_policy_label(*point): next(results) for point in points}
        mellow = next(results)
        best = best_static_policy(statics)
        for label, result in statics.items():
            table.add_row(
                workload, label, result.ipc,
                capped(result.lifetime_years),
                result.lifetime_years >= params.TARGET_LIFETIME_YEARS,
                label == best, "",
            )
        ratio = mellow.ipc / statics[best].ipc
        table.add_row(
            workload, "BE-Mellow+SC+WQ", mellow.ipc,
            capped(mellow.lifetime_years),
            mellow.lifetime_years >= params.TARGET_LIFETIME_YEARS * 0.75,
            False, f"{ratio:.3f}",
        )
    return table


ALL_FIGURES = {
    "fig01": fig01_endurance_model,
    "fig02": fig02_static_latency,
    "fig03": fig03_bank_utilization,
    "tab04": tab04_workload_mpki,
    "tab06": tab06_energy_per_op,
    "fig10": fig10_policy_ipc,
    "fig11": fig11_policy_lifetime,
    "fig12": fig12_policy_utilization,
    "fig13": fig13_write_drain,
    "fig14": fig14_llc_requests,
    "fig15": fig15_bank_requests,
    "fig16": fig16_energy,
    "fig17": fig17_expo_sensitivity,
    "fig18": fig18_bank_sensitivity,
    "fig19": fig19_vs_static,
    "figfaults": figfaults_survival,
}
