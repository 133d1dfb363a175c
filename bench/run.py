"""Benchmark: simulator throughput end to end, host time layer by layer.

    python bench/run.py                          # all five workloads
    python bench/run.py --workload hit --seed 3 --seconds 15 --trace 0
    python bench/run.py --workload miss --trace  # per-layer metrics
    python bench/run.py --smoke                  # every workload, tiny, both modes
    python bench/run.py --baseline bench/results/baseline.json

Each workload runs in a fresh child process, one at a time.  Untraced
runs report the end-to-end metrics named in BENCHMARK.json (set-up time
is the median of five fresh processes); ``--trace`` runs report the
per-layer metrics instead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  bench/README.md has the metric catalogue.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import clock

START = clock.now()   # a child's set-up time runs from here

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4            # extra set-up-only children per untraced run
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 0.1         # one round per workload
REFUSED_ENV = ("REPRO_NO_FASTPATH", "REPRO_SANITIZE")


class BenchError(RuntimeError):
    """A child failed or the environment cannot be measured."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def pool_jobs() -> int:
    """Workers for the pool workloads: two, or fewer on a smaller host."""
    return min(2, len(os.sched_getaffinity(0)))


def calibrate() -> float:
    """Host speed: median seconds of three runs of a fixed loop."""
    return statistics.median(clock.calibrate() for _ in range(3))


# ---------------------------------------------------------------------------
# Child: set up, measure one workload, print one JSON report.
# ---------------------------------------------------------------------------

def child(args: argparse.Namespace) -> int:
    import workloads as wl
    from spans import NullTracer, Tracer

    workload = wl.WORKLOADS[args.workload]
    configs = workload.configs(args.seed, args.smoke)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-"))
    session = wl.Session(tracer=Tracer() if args.trace else NullTracer(),
                         scratch=scratch, jobs=pool_jobs(), smoke=args.smoke)
    setup_s = clock.now() - START
    speed = wl.host_speed(session.tracer)
    if args.setup_only:
        shutil.rmtree(scratch)
        print(json.dumps({"metrics": {"setup_s": setup_s * speed},
                          "as_measured": {"setup_s": setup_s}}))
        return 0
    try:
        phase = wl.timed_phase(session, workload, configs, args.seconds)
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": setup_s * speed,
            "sim_accesses_per_s": phase.throughput(cpu=False),
            "sim_accesses_per_cpu_s": phase.throughput(cpu=True),
            "peak_rss_mb": peak_kb / 1024,
        }
        as_measured = {
            "setup_s": setup_s,
            "sim_accesses_per_s": phase.throughput(cpu=False, normalized=False),
            "sim_accesses_per_cpu_s": phase.throughput(cpu=True, normalized=False),
        }
        if args.trace:
            from probes import measure_layers
            metrics.update(measure_layers(session, workload, configs, args.seed, phase))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": phase.rounds,
        "samples": [dataclasses.astuple(sample) for sample in phase.samples],
        "as_measured": as_measured, "timed_s": phase.wall_s,
        "results_digest": phase.digest,
        "attempted": session.attempted, "failed": session.failed,
        "metrics": metrics, "spans": session.tracer.spans,
    }))
    return 0


# ---------------------------------------------------------------------------
# Driver: one child at a time, then the report.
# ---------------------------------------------------------------------------

def run_child(arguments: List[str], scratch: Path, timeout: float) -> dict:
    env = dict(os.environ, TMPDIR=str(scratch))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--child", *arguments],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)   # the child and its pool workers
        process.communicate()
        raise BenchError(f"child {arguments} timed out after {timeout} s") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)   # stray pool workers, if any
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise BenchError(f"child {arguments} exited with {process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(name: str, args: argparse.Namespace, trace: bool, scratch: Path) -> dict:
    common = ["--workload", name, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(int(trace))]
    if args.smoke:
        common.append("--smoke")
    calib_s = calibrate()
    probes = []
    if not trace and not args.smoke:
        probes = [run_child(common + ["--setup-only"], scratch, 60)
                  for _ in range(SETUP_PROBES)]
    report = run_child(common, scratch, CHILD_TIMEOUT_S)
    samples = {key: [probe[key]["setup_s"] for probe in probes + [report]]
               for key in ("metrics", "as_measured")}
    for key, values in samples.items():
        report[key]["setup_s"] = statistics.median(values)
    report["setup_samples"] = samples["metrics"]
    report["metrics"]["host.calib_s"] = calib_s
    return report


def select(report: dict, spec: dict) -> Dict[str, dict]:
    """The report's metrics that BENCHMARK.json names for its mode."""
    wanted = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    return {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted if m["name"] in report["metrics"]}


def complete(report: dict, spec: dict) -> bool:
    wanted = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    chosen = select(report, spec)
    return (report["failed"] == 0 and len(chosen) == len(wanted)
            and all(math.isfinite(m["value"]) for m in chosen.values()))


def print_report(report: dict, spec: dict) -> None:
    mode = "traced" if report["trace"] else "untraced"
    print(f"{report['workload']} ({mode}) seed={report['seed']} "
          f"rounds={report['rounds']} timed={report['timed_s']:.2f} s "
          f"host.calib_s={report['metrics']['host.calib_s']:.4f} "
          f"results_digest={report['results_digest']}")
    as_measured = report["as_measured"]
    for name, metric in select(report, spec).items():
        note = (f"  (as measured: {as_measured[name]:.6g})"
                if not report["trace"] and name in as_measured else "")
        print(f"  {name:32s} {metric['value']:<14.6g} {metric['unit']}{note}")
    rate = report["failed"] / max(1, report["attempted"])
    print(f"  {'error_rate':32s} {rate:<14.6g} fraction "
          f"({report['failed']}/{report['attempted']} operations failed)")


def baseline(reports: List[dict], spec: dict, path: Path, header: dict) -> None:
    """Two untraced sets, one traced set, and the spread between the two."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    count = len(reports) // 3
    first, second, traced = (reports[:count], reports[count:2 * count],
                             reports[2 * count:])
    spread: Dict[str, dict] = {}
    for one, two in zip(first, second):
        rows = {}
        for name, bound in bounds.items():
            a, b = one["metrics"][name], two["metrics"][name]
            share = abs(a - b) / ((a + b) / 2)
            rows[name] = {"first": a, "second": b, "spread": share,
                          "bound": bound, "within_bound": share <= bound}
        rows["results_digest_equal"] = one["results_digest"] == two["results_digest"]
        spread[one["workload"]] = rows

    def strip(report: dict) -> dict:
        return {key: value for key, value in report.items() if key != "spans"}

    document = dict(header, untraced=[[strip(r) for r in first],
                                      [strip(r) for r in second]],
                    traced=[strip(r) for r in traced], spread=spread)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, untraced and traced")
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--baseline", type=Path,
                        help="measure two untraced sets and one traced set, "
                             "and write them with their spread here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"bench: refusing to measure with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    selected = [args.workload] if args.workload else names
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    elif args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.baseline:
        plan = ([(name, False) for name in names] * 2
                + [(name, True) for name in names])
    elif args.smoke:
        plan = [(name, trace) for name in selected for trace in (False, True)]
    else:
        plan = [(name, bool(args.trace)) for name in selected]

    header = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "jobs": pool_jobs(), "seed": args.seed, "seconds": args.seconds}
    print(f"bench: python {header['python']}, nproc {header['nproc']}, "
          f"pool jobs {header['jobs']}, seed {args.seed}, {args.seconds:g} s per run")
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    reports = []
    try:
        for name, trace in plan:
            report = measure(name, args, trace, scratch)
            print_report(report, spec)
            reports.append(report)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    if args.baseline:
        baseline(reports, spec, args.baseline, header)
    if args.out:
        args.out.write_text(json.dumps(dict(header, reports=reports)) + "\n",
                            encoding="utf-8")
    single = len(reports) == 1
    metrics = {}
    for report in reports:
        for name, metric in select(report, spec).items():
            mode = "traced" if report["trace"] else "untraced"
            metrics[name if single else f"{report['workload']}/{mode}/{name}"] = metric
    print(json.dumps({
        "correct": all(complete(report, spec) for report in reports),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
