"""Command-line interface for the Mellow Writes simulator.

Examples::

    python -m repro run --workload lbm --policy BE-Mellow+SC+WQ
    python -m repro sweep --workloads lbm,stream --policies Norm,Slow+SC
    python -m repro figure fig11
    python -m repro ablation abl_flip_n_write
    python -m repro list

Importing this module loads what parsing the command line needs; each
verb imports the layers it runs (the runner and simulator, the exhibit
registries, the linter's rule engine) when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import params
from repro.analysis.report import Table, render
from repro.core.policies import PAPER_POLICY_NAMES, parse_policy
from repro.lint.cli import (add_check_arguments, add_lint_arguments,
                            cmd_check, cmd_lint)
from repro.sim.config import SimConfig
from repro.workloads.profiles import PROFILES, WORKLOAD_NAMES


class CLIError(Exception):
    """A user-input problem worth one clear line on stderr, not a traceback.

    Raised by command handlers for bad workload/policy names and similar;
    ``main`` catches it, prints the message, and exits 1.
    """


def _validate_workload(name: str) -> str:
    from repro.workloads.mix import MIXES
    if name not in PROFILES and name not in MIXES:
        known = ", ".join(list(WORKLOAD_NAMES) + sorted(MIXES))
        raise CLIError(f"unknown workload {name!r} (known: {known})")
    return name


def _validate_policy(name: str) -> str:
    try:
        parse_policy(name)
    except ValueError as error:
        raise CLIError(str(error)) from None
    return name


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    # Workload names are validated in _config_from_args (not argparse
    # choices) so mixes work and typos get one clear line, exit code 1.
    parser.add_argument("--workload", required=True,
                        help="workload or mix name (see 'repro list')")
    parser.add_argument("--policy", default="Norm",
                        help="Table III policy name, e.g. BE-Mellow+SC+WQ")
    parser.add_argument("--slow-factor", type=float,
                        default=params.SLOW_FACTOR_DEFAULT)
    parser.add_argument("--banks", type=int, default=params.DEFAULT_BANKS)
    parser.add_argument("--ranks", type=int, default=params.DEFAULT_RANKS)
    parser.add_argument("--expo-factor", type=float,
                        default=params.EXPO_FACTOR_DEFAULT)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--measure", type=int, default=None,
                        help="measured LLC accesses (default from SimConfig)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale factor on the simulation windows")


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    # Single-run commands only: two runs sharing one --checkpoint-dir
    # would write snapshots under the same names.
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        help="pause and snapshot every N processed LLC "
                             "accesses (resume with 'repro resume')")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for snapshot files (only written "
                             "when the run actually simulates, i.e. on "
                             "cache misses)")


def _config_from_args(args: argparse.Namespace, workload: str,
                      policy: str) -> SimConfig:
    kwargs = dict(
        workload=_validate_workload(workload),
        policy=_validate_policy(policy),
        slow_factor=args.slow_factor,
        num_banks=args.banks,
        num_ranks=args.ranks,
        expo_factor=args.expo_factor,
        seed=args.seed,
    )
    if args.measure is not None:
        kwargs["measure_accesses"] = args.measure
    if getattr(args, "checkpoint_every", None) is not None:
        kwargs["checkpoint_every"] = args.checkpoint_every
    if getattr(args, "checkpoint_dir", None) is not None:
        kwargs["checkpoint_dir"] = args.checkpoint_dir
    try:
        config = SimConfig(**kwargs)
        if args.scale != 1.0:
            config = config.scaled(args.scale)
    except ValueError as error:
        raise CLIError(str(error)) from None
    return config


def _result_table(results) -> Table:
    table = Table(
        title="Simulation results",
        columns=["workload", "policy", "ipc", "lifetime_years",
                 "utilization", "drain", "slow_writes", "eager",
                 "cancels", "energy_uJ"],
    )
    for result in results:
        table.add_row(
            result.workload, result.policy, result.ipc,
            min(result.lifetime_years, 1e4), result.bank_utilization,
            result.drain_fraction, result.writes_issued_slow,
            result.eager_writebacks, result.cancellations,
            result.total_energy_pj / 1e6,
        )
    return table


def cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import Runner

    config = _config_from_args(args, args.workload, args.policy)
    runner = Runner()
    bundle: Optional[Path] = None
    if args.telemetry:
        result, bundle = runner.run_traced(config)
    else:
        result = runner.run(config)
    print(render(_result_table([result])))
    if bundle is not None:
        print(f"telemetry bundle: {bundle}")
    if args.output:
        from repro.analysis.export import write_run_result
        path = write_run_result(result, args.output, telemetry=bundle)
        print(f"wrote {path}")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Resume a checkpointed run from a snapshot file.

    The snapshot embeds its full config, so the file is the only required
    input; ``--checkpoint-every`` / ``--checkpoint-dir`` override the
    slicing knobs for the rest of the run (they are not part of the
    simulation's identity).  The completed result is bit-identical to
    the run that would have produced it straight through.
    """
    from repro.checkpoint import CheckpointError, restore_system

    path = Path(args.snapshot)
    try:
        system = restore_system(path, checkpoint_every=args.checkpoint_every,
                                checkpoint_dir=args.checkpoint_dir)
    except FileNotFoundError:
        raise CLIError(f"snapshot not found: {path}") from None
    except (CheckpointError, ValueError) as error:
        raise CLIError(str(error)) from None
    result = system.finish_run()
    print(render(_result_table([result])))
    if args.output:
        from repro.analysis.export import write_run_result
        out = write_run_result(result, args.output)
        print(f"wrote {out}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one config with telemetry and surface its event trace."""
    from repro.experiments.runner import Runner

    config = _config_from_args(args, args.workload, args.policy)
    runner = Runner()   # a memory store's bundles live as long as it does
    result, bundle = runner.run_traced(config)
    manifest = json.loads((bundle / "manifest.json").read_text())
    trace_info = manifest["trace"]
    chrome_src = bundle / "trace.chrome.json"
    if args.output:
        shutil.copyfile(chrome_src, args.output)
        chrome_dst = Path(args.output)
    else:
        chrome_dst = chrome_src
    print(render(_result_table([result])))
    print(
        f"trace: {trace_info['retained']} events retained "
        f"({trace_info['recorded']} recorded, {trace_info['dropped']} "
        f"dropped; ring capacity {trace_info['capacity']}), "
        f"{manifest['num_epochs']} epochs sampled"
    )
    print(f"chrome trace: {chrome_dst}  (open at https://ui.perfetto.dev)")
    print(f"raw events:   {bundle / 'trace.jsonl'}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run one config with telemetry and summarise its metric series."""
    from repro.experiments.runner import Runner

    config = _config_from_args(args, args.workload, args.policy)
    runner = Runner()
    _result, bundle = runner.run_traced(config)
    metrics = json.loads((bundle / "metrics.json").read_text())
    series = metrics["series"]
    table = Table(
        title=f"Telemetry metrics: {args.workload}/{args.policy} "
              f"({len(metrics['sample_times_ns'])} epochs)",
        columns=["series", "samples", "first", "last"],
    )
    shown = 0
    for name in sorted(series):
        if args.match and args.match not in name:
            continue
        column = series[name]
        defined = [v for v in column if v is not None]
        table.add_row(
            name, len(column),
            defined[0] if defined else "-",
            defined[-1] if defined else "-",
        )
        shown += 1
    print(render(table))
    if not shown and args.match:
        print(f"no series matching {args.match!r} "
              f"({len(series)} series total)", file=sys.stderr)
        return 1
    if args.output:
        shutil.copyfile(bundle / "metrics.json", args.output)
        print(f"wrote {args.output}")
    return 0


def _print_progress(event) -> None:
    source = "cache" if event.from_cache else "sim"
    print(
        f"[{event.completed}/{event.total}] "
        f"{event.config.workload}/{event.config.policy_name} ({source})",
        file=sys.stderr,
    )


def _profile_caller_groups(
        stats: Any) -> List[Tuple[str, float, float, int]]:
    """Aggregate cProfile rows into per-module groups.

    Buckets every profiled function by the ``repro`` submodule its file
    lives in (``sim``, ``memory``, ``telemetry``, ...; top-level modules
    like ``params.py`` fall into ``repro``; everything outside the
    package - stdlib, builtins - into ``<other>``).  Must run on the raw
    stats, *before* ``strip_dirs()`` discards the paths the grouping
    keys on.  Returns ``(group, tottime, cumtime, ncalls)`` tuples sorted
    by own-time, which is the honest attribution: cumtime double-counts
    the whole call chain, so module cumtimes do not sum to wall clock.
    """
    sep = os.sep
    marker = f"{sep}repro{sep}"
    groups: Dict[str, Tuple[float, float, int]] = {}
    for (filename, _lineno, _name), (_cc, nc, tt, ct, _callers) in \
            stats.stats.items():
        where = filename.rfind(marker)
        if where < 0:
            group = "<other>"
        else:
            rest = filename[where + len(marker):]
            group = (f"repro.{rest.split(sep, 1)[0]}" if sep in rest
                     else "repro")
        own, cum, calls = groups.get(group, (0.0, 0.0, 0))
        groups[group] = (own + tt, cum + ct, calls + nc)
    return sorted(
        ((group, own, cum, calls)
         for group, (own, cum, calls) in groups.items()),
        key=lambda row: row[1], reverse=True,
    )


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one config under cProfile and print the hottest call sites.

    Bypasses the result cache (profiling a cache hit tells you nothing).
    ``--top-callers`` collapses the per-function rows into per-module
    own-time totals, the 30-second answer to "is this run core-bound or
    controller-bound?".  Note cProfile's tracing overhead inflates wall
    clock severalfold; compare *shapes*, not absolute times (``bench/``
    measures honest timings).
    """
    import cProfile
    import pstats

    from repro.sim.system import run_simulation

    config = _config_from_args(args, args.workload, args.policy)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_simulation(config)
    profiler.disable()
    print(render(_result_table([result])))
    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.top_callers:
        # Group while the stats still carry full paths; strip_dirs()
        # below would collapse every file to its basename first.
        rows = _profile_caller_groups(stats)
        total_own = sum(own for _g, own, _c, _n in rows) or 1.0
        print("\ncProfile, own time by module:")
        print(f"{'module':<18s} {'tottime':>9s} {'share':>6s} "
              f"{'cumtime':>9s} {'calls':>10s}")
        for group, own, cum, calls in rows:
            print(f"{group:<18s} {own:9.3f} {own / total_own:6.1%} "
                  f"{cum:9.3f} {calls:10d}")
    print(f"\ncProfile, top {args.limit} by {args.sort}:")
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.limit)
    if args.output:
        stats.dump_stats(args.output)
        print(f"wrote {args.output} (open with python -m pstats)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.runner import Runner

    workloads = (args.workloads.split(",") if args.workloads
                 else list(WORKLOAD_NAMES))
    policies = (args.policies.split(",") if args.policies
                else list(PAPER_POLICY_NAMES))
    for name in policies:
        _validate_policy(name)   # fail fast on typos
    for workload in workloads:
        _validate_workload(workload)
    configs = [
        _config_from_args(args, workload, policy)
        for workload in workloads for policy in policies
    ]
    progress = None if args.quiet else _print_progress
    results = Runner().sweep(configs, jobs=args.jobs, progress=progress)
    print(render(_result_table(results)))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the on-disk result cache.

    ``REPRO_NO_CACHE`` is ignored on purpose - inspecting or clearing an
    on-disk cache must work even where caching is disabled for runs.
    """
    from repro.store import cache_clear, cache_stats, cache_verify, open_store

    store = open_store(args.cache_dir)
    if args.action == "stats":
        stats = cache_stats(store)
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        table = Table(title=f"Result cache: {stats['cache_dir']}",
                      columns=["stat", "value"])
        table.add_row("backend", stats["backend"])
        table.add_row("entries", stats["entries"])
        table.add_row("total_bytes", stats["total_bytes"])
        table.add_row("valid", stats["valid"])
        table.add_row("invalid", stats["invalid"])
        table.add_row("telemetry_bundles", stats["telemetry_bundles"])
        for schema, count in sorted(stats["schema_versions"].items()):
            table.add_row(f"schema {schema}", count)
        print(render(table))
        return 0
    if args.action == "verify":
        report = cache_verify(store)
        print(f"{report['ok']} entries ok in {report['cache_dir']}")
        for bad in report["bad"]:
            print(f"BAD {bad['path']}: {bad['error']}", file=sys.stderr)
        return 1 if report["bad"] else 0
    removed = cache_clear(store)
    print(f"removed {removed} objects from {store.description}")
    return 0


def _emit_table(table, output: Optional[str]) -> None:
    print(render(table))
    if output:
        from repro.analysis.export import write_table
        path = write_table(table, output)
        print(f"\nwrote {path}")


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import ALL_FIGURES

    if args.name == "all":
        for name, regenerate in ALL_FIGURES.items():
            print(f"[{name}]")
            _emit_table(regenerate(), None)
            print()
        return 0
    try:
        regenerate = ALL_FIGURES[args.name]
    except KeyError:
        known = ", ".join(list(ALL_FIGURES) + ["all"])
        print(f"unknown figure {args.name!r} (known: {known})",
              file=sys.stderr)
        return 2
    _emit_table(regenerate(), args.output)
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ALL_ABLATIONS

    try:
        regenerate = ALL_ABLATIONS[args.name]
    except KeyError:
        known = ", ".join(ALL_ABLATIONS)
        print(f"unknown ablation {args.name!r} (known: {known})",
              file=sys.stderr)
        return 2
    _emit_table(regenerate(), args.output)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import compare_configs
    from repro.experiments.runner import Runner
    try:
        parse_policy(args.policy)
        parse_policy(args.against)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    baseline = _config_from_args(args, args.workload, args.against)
    candidate = _config_from_args(args, args.workload, args.policy)
    table = compare_configs(baseline, candidate, Runner())
    _emit_table(table, args.output)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Monte Carlo lifetime-to-failure comparison under fault injection.

    One sweep runs the (policy, seed) grid; its results feed the
    per-policy summary, a survival bar chart, and a Kaplan-Meier table
    with Greenwood 95% confidence bands.
    """
    from repro.analysis.charts import bar_chart
    from repro.experiments.faults import (
        DEFAULT_MC_SCALE,
        SURVIVAL_POLICIES,
        survival_configs,
        survival_curve_table,
        survival_records,
        survival_table,
    )
    from repro.experiments.runner import Runner
    if args.seeds < 1:
        raise CLIError(f"--seeds must be >= 1, got {args.seeds}")
    policies = (args.policies.split(",") if args.policies
                else list(SURVIVAL_POLICIES))
    for name in policies:
        _validate_policy(name)
    _validate_workload(args.workload)
    scale = args.scale if args.scale is not None else DEFAULT_MC_SCALE
    results = Runner().sweep(
        survival_configs(args.workload, policies, args.seeds, scale=scale),
        jobs=args.jobs, progress=None if args.quiet else _print_progress)
    table = survival_table(policies, args.seeds, results, args.workload)
    print(render(table))
    print()
    survival = {str(row[0]): float(row[2]) for row in table.rows}
    print(bar_chart(
        [(policy, survival[policy]) for policy in policies],
        unit=" ns",
    ))
    print()
    records = survival_records(policies, args.seeds, results)
    print(render(survival_curve_table(records, policies, args.workload)))
    if args.output:
        from repro.analysis.export import write_table
        path = write_table(table, args.output)
        print(f"\nwrote {path}")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments.ablations import ALL_ABLATIONS
    from repro.experiments.figures import ALL_FIGURES

    workloads = Table(
        title="Workloads (Table IV)",
        columns=["name", "mpki_paper", "apki", "base_cpi"],
    )
    for profile in PROFILES.values():
        workloads.add_row(profile.name, profile.mpki_paper, profile.apki,
                          profile.base_cpi)
    print(render(workloads))
    print()
    policies = Table(title="Evaluated policies (Table III)",
                     columns=["name"])
    for name in PAPER_POLICY_NAMES:
        policies.add_row(name)
    print(render(policies))
    print()
    figures = Table(title="Reproducible figures/tables", columns=["id"])
    for name in ALL_FIGURES:
        figures.add_row(name)
    for name in ALL_ABLATIONS:
        figures.add_row(name)
    print(render(figures))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mellow Writes (ISCA 2016) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="simulate one workload under one policy",
    )
    _add_run_arguments(run_parser)
    _add_checkpoint_arguments(run_parser)
    run_parser.add_argument("--telemetry", action="store_true",
                            help="record telemetry (metrics, trace, "
                                 "heatmap) alongside the run")
    run_parser.add_argument("--output", default=None,
                            help="write the full result as JSON (includes "
                                 "telemetry when --telemetry is set)")
    run_parser.set_defaults(handler=cmd_run)

    resume_parser = subparsers.add_parser(
        "resume", help="resume a checkpointed run from a snapshot file",
    )
    resume_parser.add_argument("snapshot",
                               help="snapshot file written by a "
                                    "--checkpoint-dir run (self-contained: "
                                    "embeds its full config)")
    resume_parser.add_argument("--checkpoint-every", type=int, default=None,
                               help="override the pause interval for the "
                                    "rest of the run")
    resume_parser.add_argument("--checkpoint-dir", default=None,
                               help="override where further snapshots "
                                    "are written")
    resume_parser.add_argument("--output", default=None,
                               help="write the full result as JSON")
    resume_parser.set_defaults(handler=cmd_resume)

    trace_parser = subparsers.add_parser(
        "trace", help="run with telemetry and export a Perfetto-ready "
                      "Chrome trace",
    )
    _add_run_arguments(trace_parser)
    _add_checkpoint_arguments(trace_parser)
    trace_parser.add_argument("--output", default=None,
                              help="copy the Chrome trace JSON here "
                                   "(default: leave it in the bundle dir)")
    trace_parser.set_defaults(handler=cmd_trace)

    metrics_parser = subparsers.add_parser(
        "metrics", help="run with telemetry and summarise the metric "
                        "time series",
    )
    _add_run_arguments(metrics_parser)
    _add_checkpoint_arguments(metrics_parser)
    metrics_parser.add_argument("--match", default=None,
                                help="only show series containing this "
                                     "substring (e.g. 'queue.' or 'bank.')")
    metrics_parser.add_argument("--output", default=None,
                                help="copy the metrics JSON here")
    metrics_parser.set_defaults(handler=cmd_metrics)

    profile_parser = subparsers.add_parser(
        "profile", help="run one config under cProfile and print the "
                        "hottest call sites",
    )
    _add_run_arguments(profile_parser)
    _add_checkpoint_arguments(profile_parser)
    profile_parser.add_argument("--sort", default="cumtime",
                                choices=["cumtime", "tottime", "ncalls"],
                                help="pstats sort key (default cumtime)")
    profile_parser.add_argument("--limit", type=int, default=25,
                                help="rows of profile output (default 25)")
    profile_parser.add_argument("--output", default=None,
                                help="also dump raw pstats data here")
    profile_parser.add_argument("--top-callers", action="store_true",
                                help="first print own time grouped by "
                                     "repro submodule (sim/memory/...)")
    profile_parser.set_defaults(handler=cmd_profile)

    sweep_parser = subparsers.add_parser(
        "sweep", help="simulate a workload x policy grid",
    )
    sweep_parser.add_argument("--workloads", default=None,
                              help="comma separated (default: all 11)")
    sweep_parser.add_argument("--policies", default=None,
                              help="comma separated (default: Table III set)")
    sweep_parser.add_argument("--slow-factor", type=float,
                              default=params.SLOW_FACTOR_DEFAULT)
    sweep_parser.add_argument("--banks", type=int,
                              default=params.DEFAULT_BANKS)
    sweep_parser.add_argument("--ranks", type=int,
                              default=params.DEFAULT_RANKS)
    sweep_parser.add_argument("--expo-factor", type=float,
                              default=params.EXPO_FACTOR_DEFAULT)
    sweep_parser.add_argument("--seed", type=int, default=1)
    sweep_parser.add_argument("--measure", type=int, default=None)
    sweep_parser.add_argument("--scale", type=float, default=1.0)
    sweep_parser.add_argument("--jobs", type=int, default=None,
                              help="parallel workers (default REPRO_JOBS "
                                   "or all cores)")
    sweep_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-run progress on stderr")
    sweep_parser.set_defaults(handler=cmd_sweep)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or maintain the result cache",
    )
    cache_parser.add_argument("action", choices=["stats", "verify", "clear"])
    cache_parser.add_argument("--cache-dir", default=None,
                              help="cache location (default REPRO_CACHE_DIR "
                                   "or .repro_cache)")
    cache_parser.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON (stats)")
    cache_parser.set_defaults(handler=cmd_cache)

    figure_parser = subparsers.add_parser(
        "figure", help="regenerate one paper table/figure",
    )
    figure_parser.add_argument("name", help="e.g. fig11, tab06, or 'all'")
    figure_parser.add_argument("--output", default=None,
                               help="also export to .csv or .json")
    figure_parser.set_defaults(handler=cmd_figure)

    ablation_parser = subparsers.add_parser(
        "ablation", help="run one ablation study",
    )
    ablation_parser.add_argument("name", help="e.g. abl_flip_n_write")
    ablation_parser.add_argument("--output", default=None,
                                 help="also export to .csv or .json")
    ablation_parser.set_defaults(handler=cmd_ablation)

    compare_parser = subparsers.add_parser(
        "compare", help="compare one policy against another on a workload",
    )
    _add_run_arguments(compare_parser)
    compare_parser.add_argument("--against", default="Norm",
                                help="baseline policy (default Norm)")
    compare_parser.add_argument("--output", default=None,
                                help="also export to .csv or .json")
    compare_parser.set_defaults(handler=cmd_compare)

    faults_parser = subparsers.add_parser(
        "faults", help="Monte Carlo lifetime-to-failure under fault "
                       "injection (accelerated aging)",
    )
    faults_parser.add_argument("--workload", default="zeusmp",
                               help="workload or mix name (default zeusmp)")
    faults_parser.add_argument("--policies", default=None,
                               help="comma separated (default "
                                    "Norm,BE-Mellow+SC,Slow+SC)")
    faults_parser.add_argument("--seeds", type=int, default=20,
                               help="Monte Carlo samples per policy "
                                    "(default 20)")
    faults_parser.add_argument("--scale", type=float, default=None,
                               help="window scale for each sample "
                                    "(default 0.02)")
    faults_parser.add_argument("--jobs", type=int, default=None,
                               help="parallel workers (default REPRO_JOBS "
                                    "or all cores)")
    faults_parser.add_argument("--quiet", action="store_true",
                               help="suppress per-run progress on stderr")
    faults_parser.add_argument("--output", default=None,
                               help="also export the table to .csv or .json")
    faults_parser.set_defaults(handler=cmd_faults)

    list_parser = subparsers.add_parser(
        "list", help="list workloads, policies, figures",
    )
    list_parser.set_defaults(handler=cmd_list)

    lint_parser = subparsers.add_parser(
        "lint", help="simulator-aware static analysis (simlint)",
    )
    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(handler=cmd_lint)

    check_parser = subparsers.add_parser(
        "check", help="umbrella static checking: simlint + ruff + mypy",
    )
    add_check_arguments(check_parser)
    check_parser.set_defaults(handler=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CLIError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
