"""The benchmark's five workloads and the timed phase that runs them.

Every workload is a closed loop: it repeats *rounds* of the same
simulations, generated from ``--seed``, and a simulation starts only
when the previous one (or a pool worker) is free.  The timed phase stops
at the round boundary nearest to the requested duration.  A round is
cut into units that are timed one by one, with the host's speed measured
between them; the first round's results feed the digest and the
per-layer counts.

The simulator is driven only through its public calls (``System``,
``start_run``/``continue_run``, ``Telemetry.write``, ``Runner.sweep``/
``sweep_sliced``, the stores), and the benchmark times those calls from
here.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from clock import calibrate, cpu_seconds, now

from repro.experiments.faults import (SURVIVAL_POLICIES, sliced_survival_configs,
                                      survival_records)
from repro.experiments.runner import Runner
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.sim.system import System
from repro.store import FileStore, MemoryStore, result_to_dict

MELLOW_PAIR = ("Norm", "BE-Mellow+SC")
MISS_WORKLOADS = ("gups", "lbm", "stream")
TRACED_WORKLOADS = ("zeusmp", "gups")
SWEEP_WORKLOADS = ("hmmer", "gups", "lbm", "stream", "zeusmp", "mcf")
SWEEP_POLICIES = ("Norm", "Slow+SC", "BE-Mellow+SC")
SURVIVAL_SEEDS = 8      # Monte Carlo seeds per policy in one survival round
SURVIVAL_SLICES = 4
CALIB_ITERATIONS = 50_000    # one calibration loop: a few milliseconds
REFERENCE_CALIB_S = 0.004    # that loop's time on the reference host


def shrink(config: SimConfig) -> SimConfig:
    """The ``--smoke`` size of a config: tiny windows.  The functional
    pre-fill keeps its length: without a full LLC nothing is written back."""
    return replace(
        config,
        warmup_accesses=min(config.warmup_accesses, 1000),
        measure_accesses=min(config.measure_accesses, 2000),
        checkpoint_every=(None if config.checkpoint_every is None
                          else min(config.checkpoint_every, 750)),
    )


def _hit(seed: int) -> List[SimConfig]:
    return [SimConfig(workload="hmmer", policy=policy, seed=seed)
            for policy in MELLOW_PAIR]


def _miss(seed: int) -> List[SimConfig]:
    return [SimConfig(workload=name, policy=policy, seed=seed).scaled(0.25)
            for name in MISS_WORKLOADS for policy in MELLOW_PAIR]


def _traced(seed: int) -> List[SimConfig]:
    return [SimConfig(workload=name, policy="BE-Mellow+SC", seed=seed,
                      telemetry=True).scaled(0.5)
            for name in TRACED_WORKLOADS]


def _sweep(seed: int) -> List[SimConfig]:
    return [SimConfig(workload=name, policy=policy, seed=seed).scaled(0.25)
            for name in SWEEP_WORKLOADS for policy in SWEEP_POLICIES]


def _survival(seed: int) -> List[SimConfig]:
    return [replace(config, seed=config.seed + seed - 1)
            for config in sliced_survival_configs(seeds=SURVIVAL_SEEDS,
                                                  slices=SURVIVAL_SLICES)]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "inprocess", "sweep" or "survival"
    build: Callable[[int], List[SimConfig]]
    # Indices into ``configs()`` that a traced run simulates in-process for
    # the sim layer: a pool workload's simulations run where spans cannot reach.
    sample: Tuple[int, ...] = ()

    def configs(self, seed: int, smoke: bool) -> List[SimConfig]:
        """One round's inputs; ``smoke`` keeps one seed at tiny windows."""
        configs = self.build(seed)
        if smoke:
            return [shrink(c) for c in configs if c.seed == seed]
        return configs


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("hit", "inprocess", _hit),
    Workload("miss", "inprocess", _miss),
    Workload("traced", "inprocess", _traced),
    # hmmer/Norm, lbm/Slow+SC, zeusmp/BE-Mellow+SC: three workloads and
    # all three policies of the grid.
    Workload("sweep", "sweep", _sweep, sample=(0, 7, 14)),
    # The first seed of each policy.
    Workload("survival", "survival", _survival,
             sample=(0, SURVIVAL_SEEDS, 2 * SURVIVAL_SEEDS)),
)}


@dataclass
class Run:
    """One in-process simulation and the span that timed its measurement."""

    config: SimConfig
    result: RunResult
    measure_span: int


@dataclass
class Session:
    """Everything one child process accumulates while it measures."""

    tracer: object
    scratch: Path
    jobs: int
    smoke: bool
    attempted: int = 0
    failed: int = 0
    simulated: int = 0
    bundle_bytes: int = 0
    runs: List[Run] = field(default_factory=list)   # the sim layer's simulations

    def record(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"bench: check failed: {what}", file=sys.stderr)

    def fail(self, what: str, count: int) -> None:
        traceback.print_exc()
        self.record(False, what, count)

    def directory(self, name: str) -> Path:
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def processed(config: SimConfig, result: RunResult) -> int:
    """LLC accesses simulated in detail: the timed warm-up plus the window.

    The counters restart when the timed warm-up ends, unless a fatal
    fault ended the run before that; its window then starts at zero.
    """
    if result.uncorrectable and result.window_ns >= result.time_to_uncorrectable_ns:
        return result.accesses
    return config.warmup_accesses + result.accesses


def result_ok(config: SimConfig, result: RunResult) -> bool:
    """The window was simulated in full and the headline numbers are sane.

    A window can end a few accesses past its length: accesses retiring at
    the instant it closes are counted too.
    """
    if not result.uncorrectable and result.accesses < config.measure_accesses:
        return False
    return all(math.isfinite(value) and value > 0
               for value in (result.ipc, result.window_ns, result.lifetime_years))


def same(first: Sequence[RunResult], second: Sequence[RunResult]) -> bool:
    return ([result_to_dict(r) for r in first]
            == [result_to_dict(r) for r in second])


def simulate(session: Session, config: SimConfig,
             bundle_dir: Optional[Path] = None) -> Run:
    """Build, warm up and run one system, spanning each phase."""
    span = session.tracer.span
    with span("sim.construct"):
        system = System(config)
    with span("sim.warmup"):
        system.start_run()
    with span("sim.measure") as measure:
        result = system.continue_run()
        while result is None:       # checkpoint pause: keep going
            result = system.continue_run()
    if bundle_dir is not None:
        with span("telemetry.export"):
            paths = system.telemetry.write(bundle_dir)
        session.bundle_bytes += sum(path.stat().st_size for path in paths)
        with span("bench.cleanup"):
            shutil.rmtree(bundle_dir)
    return Run(config, result, measure)


#: A unit's results, plus any merged records derived from them.
Output = Tuple[List[RunResult], list]


def run_inprocess(session: Session, configs: Sequence[SimConfig]) -> Output:
    """Simulate each config in this process, adding each to the sim layer."""
    results = []
    for config in configs:
        try:
            run = simulate(session, config,
                           session.scratch / "bundle" if config.telemetry else None)
        except Exception:
            session.fail(f"{config.workload}/{config.policy_name} raised", 1)
            continue
        session.record(result_ok(config, run.result),
                       f"{config.workload}/{config.policy_name} result")
        results.append(run.result)
        session.runs.append(run)
    session.simulated += len(results)
    return results, []


def run_sweep(session: Session, configs: Sequence[SimConfig]) -> Output:
    """A cold sweep into a fresh file store, then a warm pass over it."""
    span = session.tracer.span
    store_dir = session.directory("store")
    try:
        with span("experiments.sweep"):
            cold_runner = Runner(store=FileStore(store_dir))
            cold = cold_runner.sweep(configs, jobs=session.jobs,
                                     apply_env_scale=False)
        with span("store.warm_sweep"):
            warm_runner = Runner(store=FileStore(store_dir))
            warm = warm_runner.sweep(configs, jobs=session.jobs,
                                     apply_env_scale=False)
    except Exception:
        session.fail("sweep raised", 3 * len(configs))
        return [], []
    with span("bench.check"):
        session.simulated += cold_runner.simulated
        for config, result in zip(configs, cold):
            session.record(result_ok(config, result),
                           f"{config.workload}/{config.policy_name} result")
        session.record(warm_runner.simulated == 0, "warm pass re-simulated",
                       cold_runner.simulated)
        session.record(same(cold, warm), "warm sweep differs from cold",
                       len(configs))
    with span("bench.cleanup"):
        shutil.rmtree(store_dir)
    return cold, []


def run_survival(session: Session, configs: Sequence[SimConfig]) -> Output:
    """A sliced survival study over the pool, merged into censored records."""
    span = session.tracer.span
    try:
        with span("experiments.sweep_sliced"):
            runner = Runner(store=MemoryStore())
            results = runner.sweep_sliced(
                configs, jobs=session.jobs, apply_env_scale=False,
                checkpoint_dir=session.directory("slices"))
        with span("experiments.survival_records"):
            records = survival_records(SURVIVAL_POLICIES,
                                       len(configs) // len(SURVIVAL_POLICIES),
                                       results)
    except Exception:
        session.fail("survival study raised", 2 * len(configs))
        return [], []
    with span("bench.check"):
        session.simulated += runner.simulated
        for config, result in zip(configs, results):
            session.record(result_ok(config, result),
                           f"{config.workload}/{config.policy_name} "
                           f"seed {config.seed} result")
        session.record(True, "store put", runner.simulated)
    return results, records


def host_speed(tracer: object) -> float:
    """The host's speed now, relative to the reference host (1.0)."""
    with tracer.span("bench.calibrate"):
        taken = [calibrate(CALIB_ITERATIONS) for _ in range(3)]
    return REFERENCE_CALIB_S / statistics.median(taken)


@dataclass
class Sample:
    """One timed unit: one in-process simulation, one policy column of the
    sweep grid, or a whole survival round."""

    position: int             # which unit of the round
    wall_s: float
    cpu_s: float
    accesses: int
    speed: float              # host speed around the unit (see host_speed)


@dataclass
class Phase:
    """What the timed phase measured."""

    samples: List[Sample]
    wall_s: float
    cpu_s: float
    simulated: int
    rounds: int
    round0: List[Tuple[SimConfig, RunResult]]
    digest: str
    root: int

    def throughput(self, cpu: bool, normalized: bool = True) -> float:
        """Accesses per (reference-host) second of wall or CPU time.

        Each unit's time is scaled by the host speed measured around it,
        then every unit of the round contributes its median over the
        repetitions.
        """
        times: Dict[int, List[float]] = {}
        accesses: Dict[int, int] = {}
        for sample in self.samples:
            taken = sample.cpu_s if cpu else sample.wall_s
            times.setdefault(sample.position, []).append(
                taken * sample.speed if normalized else taken)
            accesses[sample.position] = sample.accesses
        return (sum(accesses.values())
                / sum(statistics.median(values) for values in times.values()))


def timed_phase(session: Session, workload: Workload, configs: Sequence[SimConfig],
                seconds: float) -> Phase:
    """Repeat the round until ``seconds`` have passed, unit by unit.

    Short units give many samples of each, and the host speed measured
    next to each unit lets its time be scaled to the reference host.
    """
    tracer = session.tracer
    run = {"sweep": run_sweep, "survival": run_survival}.get(workload.kind, run_inprocess)
    if workload.kind == "inprocess":
        units = [[config] for config in configs]
    elif workload.kind == "sweep":
        units = [[c for c in configs if c.policy_name == p] for p in SWEEP_POLICIES]
    else:
        units = [list(configs)]
    samples: List[Sample] = []
    outputs: List[list] = []
    first: List[Tuple[SimConfig, RunResult]] = []
    with tracer.span("timed") as root:
        start, cpu_start = now(), cpu_seconds()
        speed = host_speed(tracer)
        while True:
            for position, unit in enumerate(units):
                unit_start, unit_cpu = now(), cpu_seconds()
                with tracer.span("unit"):
                    results, records = run(session, unit)
                wall, cpu = now() - unit_start, cpu_seconds() - unit_cpu
                after = host_speed(tracer)
                samples.append(Sample(
                    position, wall, cpu,
                    sum(processed(c, r) for c, r in zip(unit, results)),
                    (speed + after) / 2))
                speed = after
                outputs.append([result_to_dict(r) for r in results] + records)
                if len(outputs) <= len(units):
                    first.extend(zip(unit, results))
            elapsed = now() - start
            rounds = len(samples) // len(units)
            if elapsed + elapsed / rounds / 2 >= seconds:
                break
        wall, cpu = now() - start, cpu_seconds() - cpu_start
    for index in range(len(units), len(outputs)):
        session.record(outputs[index] == outputs[index % len(units)],
                       "a repeated round gave other results", len(units[index % len(units)]))
    digest = hashlib.sha256(json.dumps(
        outputs[:len(units)], sort_keys=True).encode("utf-8")).hexdigest()
    return Phase(
        samples=samples, wall_s=wall, cpu_s=cpu, simulated=session.simulated,
        rounds=rounds, round0=first, digest=digest, root=root,
    )
