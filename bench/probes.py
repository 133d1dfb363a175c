"""Per-layer measurements for traced (``--trace 1``) runs.

The probes run after the timed phase, so they never enter the
end-to-end numbers.  Each layer is measured from outside, with spans
around public calls:

* ``sim``       - construct / warm-up / measure spans of the in-process
  simulations: the timed phase's own for in-process workloads, a sample
  of round 0 re-run in-process for the pool workloads.
* ``workloads``, ``cache``, ``memory`` - replay: draw records from the
  workload's trace, replay them through a warmed LLC, then replay the
  resulting misses and dirty victims into a bare memory controller.
* ``cpu``       - what the replay costs cannot explain of the measure span.
* ``telemetry`` - bundle export spans and traced-vs-untraced twins.
* ``store``     - file-store put/get latencies and a warm sweep.
* ``checkpoint``, ``faults`` - survival configs stepped through their
  slices with save/restore, next to straight and fault-free runs.
"""

from __future__ import annotations

import itertools
import math
import shutil
import statistics
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import spans as sp
from workloads import (SURVIVAL_SLICES, Phase, Run, Session, Workload, processed,
                       result_ok, run_inprocess, same, shrink, simulate)

from repro.checkpoint import restore_system, save_snapshot
from repro.experiments.faults import sliced_survival_configs
from repro.experiments.runner import Runner
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult
from repro.sim.system import System
from repro.store import FileStore, entry_to_json
from repro.workloads.profiles import get_profile

RECORDS = 100_000        # trace records drawn and replayed per workload
REQUESTS = 30_000        # controller requests replayed per policy
STORE_SAMPLES = 100      # puts and gets each, for the p90
CHECKPOINT_SEEDS = 2     # x 3 policies = 6 stepped survival configs


def policy_kind(config: SimConfig) -> str:
    return "norm" if config.policy_name == "Norm" else "mellow"


def replay(session: Session, config: SimConfig) -> Dict[str, float]:
    """Replay one workload's stream through the LLC, then the controller."""
    span = session.tracer.span
    spans = session.tracer.spans
    records_n, requests_n = (5000, 2000) if session.smoke else (RECORDS, REQUESTS)
    config = replace(config, telemetry=False, checkpoint_every=None)
    with span("workloads.draw") as draw:
        records = list(itertools.islice(
            get_profile(config.workload).trace(config.seed + 1), records_n))
    with span("bench.prepare"):
        system = System(config)
        system.start_run()          # functional warm-up fills the LLC
        llc = system.llc
        access = llc.access
    with span("cache.replay") as cache_span:
        outcomes = [access(record.block, record.is_write) for record in records]
    cache = llc.cache
    stream: List[Tuple[bool, int]] = []
    for record, outcome in zip(records, outcomes):
        if not outcome.hit:
            stream.append((False, record.block))
            victim = outcome.victim
            if victim is not None and victim.dirty:
                stream.append((True, cache.block_of(
                    cache.set_index(record.block), victim.tag)))
    stream = stream[:requests_n]
    costs = {
        "records": len(records),
        "draw_s": sp.duration(spans[draw]),
        "llc_s": sp.duration(spans[cache_span]),
        "requests": len(stream),
    }
    for kind, policy in (("norm", "Norm"), ("mellow", "BE-Mellow+SC")):
        with span("bench.prepare"):
            target = System(replace(config, policy=policy))
            controller, events = target.controller, target.events
        with span(f"memory.replay.{kind}") as replay_span:
            for is_write, block in stream:
                submit = controller.submit_write if is_write else controller.submit_read
                while not submit(block):
                    if not events.pop_and_run():
                        raise RuntimeError("controller queue full with no event pending")
            while events.peek_time() is not None:
                events.pop_and_run()
        costs[f"{kind}_s"] = sp.duration(spans[replay_span])
    return costs


def telemetry_twins(session: Session, phase: Phase) -> List[Tuple[Run, Run]]:
    """(traced, untraced) runs of the same configs; results must match."""
    pairs = []
    if phase.round0 and phase.round0[0][0].telemetry:
        for run in session.runs[:len(phase.round0)]:
            twin = simulate(session, replace(run.config, telemetry=False))
            pairs.append((run, twin))
    else:
        run = session.runs[0]
        twin = simulate(session, replace(run.config, telemetry=True),
                        session.scratch / "bundle")
        pairs.append((twin, run))
    for traced, plain in pairs:
        session.record(same([traced.result], [plain.result]),
                       f"{plain.config.workload}: telemetry changed the result")
    return pairs


def store_probe(session: Session, phase: Phase) -> int:
    """Put and get round 0's entries, then sweep them warm."""
    entries = [(replace(config, telemetry=False), result)
               for config, result in phase.round0]
    payloads = [(config.cache_digest(), entry_to_json(config, result).encode("utf-8"))
                for config, result in entries]
    repeats = math.ceil(STORE_SAMPLES / len(payloads))
    store_dir = session.directory("probe-store")
    store = FileStore(store_dir)
    span = session.tracer.span
    for _ in range(repeats):
        for digest, data in payloads:
            with span("store.put"):
                store.put(digest, data)
            session.record(True, "store put")
    for _ in range(repeats):
        for digest, data in payloads:
            with span("store.get"):
                got = store.get(digest)
            session.record(got == data, "store get returned other bytes")
    with span("store.warm_sweep"):
        runner = Runner(store=FileStore(store_dir))
        warm = runner.sweep([config for config, _ in entries], jobs=1,
                            apply_env_scale=False)
    session.record(runner.simulated == 0 and same(warm, [r for _, r in entries]),
                   "warm sweep over stored entries", len(entries))
    shutil.rmtree(store_dir)
    return len(payloads) * repeats


def checkpoint_probe(session: Session, seed: int
                     ) -> Tuple[List[Run], List[Run], List[float]]:
    """Step survival configs through their slices; returns the straight
    runs, the fault-free runs and the snapshot sizes in KB."""
    seeds = 1 if session.smoke else CHECKPOINT_SEEDS
    configs = [replace(config, seed=config.seed + seed - 1)
               for config in sliced_survival_configs(seeds=seeds,
                                                     slices=SURVIVAL_SLICES)]
    if session.smoke:
        configs = [shrink(config) for config in configs]
    path = session.directory("probe-checkpoint") / "slice.ckpt"
    span = session.tracer.span
    straight, clean, sizes_kb = [], [], []
    for config in configs:
        plain = replace(config, checkpoint_every=None)
        straight.append(simulate(session, plain))
        clean.append(simulate(session, replace(plain, faults=None)))
        for run in (straight[-1], clean[-1]):
            session.record(result_ok(run.config, run.result),
                           f"{config.policy_name} seed {config.seed} result")
        system = System(config)
        system.start_run()
        restores = 0
        result = system.continue_run()
        while result is None:
            with span("checkpoint.save"):
                save_snapshot(system, path)
            sizes_kb.append(path.stat().st_size / 1024)
            with span("checkpoint.restore"):
                system = restore_system(path)
            restores += 1
            result = system.continue_run()
        session.record(same([result], [straight[-1].result]),
                       f"{config.policy_name} seed {config.seed}: "
                       "restore-then-continue differs from a straight run",
                       1 + restores)
    shutil.rmtree(path.parent)
    return straight, clean, sizes_kb


def _per_access_s(spans: Sequence[sp.Span], runs: Sequence[Run]) -> float:
    return (sum(sp.duration(spans[run.measure_span]) for run in runs)
            / sum(processed(run.config, run.result) for run in runs))


def _named(spans: Sequence[sp.Span], indices: Sequence[int], name: str) -> List[float]:
    return [sp.duration(spans[i]) for i in indices if spans[i][0] == name]


def measure_layers(session: Session, workload: Workload, configs: Sequence[SimConfig],
                   seed: int, phase: Phase) -> Dict[str, float]:
    """Run every probe and derive the per-layer metrics."""
    tracer = session.tracer
    spans = tracer.spans
    round0_counts = _round0_counts(phase.round0)
    timed = sp.descendants(spans, phase.root)
    overhead = (len(timed) + 1) * sp.cost_per_span()

    if workload.kind == "inprocess":
        sim_root = phase.root
    else:
        with tracer.span("probe.sim") as sim_root:
            run_inprocess(session, [configs[i] for i in workload.sample
                                    if i < len(configs)])
    sim_spans = sp.descendants(spans, sim_root)
    sims = len(session.runs)
    construct = sum(_named(spans, sim_spans, "sim.construct")) / sims
    warmup = sum(_named(spans, sim_spans, "sim.warmup")) / sims
    measure = sum(_named(spans, sim_spans, "sim.measure")) / sims

    with tracer.span("probe.replay"):
        first_of = {}
        for run in session.runs:
            first_of.setdefault(run.config.workload, run.config)
        costs = {name: replay(session, config) for name, config in first_of.items()}
    attributed = 0.0
    for run in session.runs:
        cost = costs[run.config.workload]
        count = processed(run.config, run.result)
        requests = run.result.requests_issued_total * count / max(1, run.result.accesses)
        per_request = cost[f"{policy_kind(run.config)}_s"] / max(1, cost["requests"])
        attributed += count * cost["llc_s"] / cost["records"] + requests * per_request
    attributed /= sims

    with tracer.span("probe.telemetry"):
        twins = telemetry_twins(session, phase)
    with tracer.span("probe.store") as store_root:
        samples = store_probe(session, phase)
    store_spans = sp.descendants(spans, store_root)
    puts = _named(spans, store_spans, "store.put")
    gets = _named(spans, store_spans, "store.get")
    with tracer.span("probe.checkpoint") as checkpoint_root:
        straight, clean, sizes_kb = checkpoint_probe(session, seed)
    checkpoint_spans = sp.descendants(spans, checkpoint_root)
    exports = _named(spans, range(len(spans)), "telemetry.export")

    def p(values: Sequence[float], index: int) -> float:
        return statistics.quantiles(values, n=10)[index] * 1e3

    replayed = costs.values()
    timed_wall = sp.duration(spans[phase.root])
    own = sp.self_times(spans)
    return {
        "sim.construct_s": construct,
        "sim.warmup_s": warmup,
        "sim.measure_s": measure,
        "sim.measure_us_per_access": 1e6 * _per_access_s(spans, session.runs),
        "sim.attributed_frac": attributed / measure,
        "workloads.records_per_s": (sum(c["records"] for c in replayed)
                                    / sum(c["draw_s"] for c in replayed)),
        "cache.accesses_per_s": (sum(c["records"] for c in replayed)
                                 / sum(c["llc_s"] for c in replayed)),
        **round0_counts,
        "memory.requests_per_s": (sum(c["requests"] for c in replayed)
                                  / sum(c["norm_s"] for c in replayed)),
        "memory.requests_per_s.mellow": (sum(c["requests"] for c in replayed)
                                         / sum(c["mellow_s"] for c in replayed)),
        "cpu.remainder_s": measure - attributed,
        "telemetry.export_s": statistics.fmean(exports),
        "telemetry.export_mb_per_s": session.bundle_bytes / 1e6 / sum(exports),
        "telemetry.overhead_frac": (
            sum(sp.duration(spans[t.measure_span]) for t, _ in twins)
            / sum(sp.duration(spans[u.measure_span]) for _, u in twins) - 1.0),
        "store.put_ms.p50": p(puts, 4),
        "store.put_ms.p90": p(puts, 8),
        "store.get_ms.p50": p(gets, 4),
        "store.get_ms.p90": p(gets, 8),
        "store.samples": float(samples),
        "store.warm_sweep_ms": 1e3 * sum(_named(spans, store_spans, "store.warm_sweep")),
        "experiments.pool_busy_frac": phase.cpu_s / (
            (1 if workload.kind == "inprocess" else session.jobs) * phase.wall_s),
        "experiments.simulated": float(phase.simulated),
        "checkpoint.save_ms": 1e3 * statistics.median(
            _named(spans, checkpoint_spans, "checkpoint.save")),
        "checkpoint.restore_ms": 1e3 * statistics.median(
            _named(spans, checkpoint_spans, "checkpoint.restore")),
        "checkpoint.snapshot_kb": statistics.fmean(sizes_kb),
        "faults.us_per_access": 1e6 * _per_access_s(spans, straight),
        "faults.slowdown": _per_access_s(spans, straight) / _per_access_s(spans, clean),
        "faults.uncorrectable_runs": float(sum(r.result.uncorrectable for r in straight)),
        "faults.lines_retired": float(sum(r.result.lines_retired for r in straight)),
        "faults.write_retries": float(sum(r.result.fault_write_retries for r in straight)),
        "bench.trace_overhead_frac": overhead / timed_wall,
        "bench.span_coverage_frac": 1.0 - (
            own[phase.root] + sum(own[i] for i in timed if spans[i][0] == "unit")
        ) / timed_wall,
    }


def _round0_counts(round0: Sequence[Tuple[SimConfig, RunResult]]) -> Dict[str, float]:
    """Simulated-machine counts summed over round 0's results."""
    def total(attribute: str) -> float:
        return float(sum(getattr(result, attribute) for _, result in round0))

    eager = total("eager_writebacks")
    return {
        "cache.hits": total("llc_hits"),
        "cache.misses": total("llc_misses"),
        "cache.writebacks": total("writebacks"),
        "cache.eager_writebacks": eager,
        "cache.eager_useful_frac": 1.0 - total("wasted_eager") / max(1.0, eager),
        "memory.reads_issued": total("reads_issued"),
        "memory.writes_normal": total("writes_issued_normal"),
        "memory.writes_slow": total("writes_issued_slow"),
        "memory.eager_issued": total("eager_issued"),
        "memory.cancellations": total("cancellations"),
        "memory.drain_events": total("drain_events"),
    }
