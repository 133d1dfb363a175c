"""Measure telemetry overhead: disabled must be free, enabled must be cheap.

Runs the same config three ways - the untraced baseline, untraced again
(to bound timing noise), and traced writing a full bundle - verifies the
results are bit-identical, and reports the ratios of this process's CPU
time.  CPU time leaves out the time other processes on a shared host
take from this one, which swung wall-clock ratios of one tree by more
than the enabled-path bound within minutes; wall time is printed beside
it.  The three variants are interleaved round-robin and each round
scored as a ratio against its own baseline run; the minimum per-round
ratio is reported, so the noise that remains (cache and frequency
effects, which are round-correlated and strictly additive) does not
masquerade as overhead.  Every round's times and ratios are printed, so
a failing log shows whether host load moved between rounds.  Asserts:

* disabled-path overhead < ``DISABLED_MAX`` (2%, measured as the off/off
  ratio - the noise floor bounds the cost of the
  one-attribute-check-per-site disabled path from above);
* enabled-path overhead < ``ENABLED_MAX`` (25%), including writing the
  bundle to disk.

    PYTHONPATH=src python benchmarks/check_telemetry_overhead.py
"""
from __future__ import annotations

import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.sim.config import SimConfig
from repro.sim.system import run_simulation

CONFIG = SimConfig(workload="lbm", policy="BE-Mellow+SC+WQ",
                   warmup_accesses=24_000, measure_accesses=96_000)
REPEATS = 3
DISABLED_MAX = 0.02
ENABLED_MAX = 0.25


def timed_run(config: SimConfig):
    """``(cpu_s, wall_s, result)`` of one run in this process."""
    cpu = time.process_time()
    wall = time.perf_counter()   # simlint: ignore[SIM003] -- host runtime is the point
    result = run_simulation(config)
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall   # simlint: ignore[SIM003] -- host runtime is the point
    return cpu, wall, result


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        variants = {
            "base": CONFIG,
            "off": CONFIG,
            "on": replace(CONFIG, telemetry=True,
                          telemetry_dir=str(Path(tmp) / "bundle")),
        }
        times = {key: [] for key in variants}
        walls = {key: [] for key in variants}
        results = {}
        for round_index in range(REPEATS):
            for key, config in variants.items():
                cpu, wall, results[key] = timed_run(config)
                times[key].append(cpu)
                walls[key].append(wall)
            base, off, on = (times[key][-1] for key in ("base", "off", "on"))
            wbase, woff, won = (walls[key][-1]
                                for key in ("base", "off", "on"))
            print(f"round {round_index + 1}: CPU base {base:.2f}s "
                  f"off {off:.2f}s on {on:.2f}s | off/base "
                  f"{off / base - 1.0:+.1%} on/base {on / base - 1.0:+.1%} "
                  f"|| wall base {wbase:.2f}s off {woff:.2f}s "
                  f"on {won:.2f}s | on/base {won / wbase - 1.0:+.1%}")

    if not (results["base"] == results["off"] == results["on"]):
        print("FAIL: traced/untraced results differ", file=sys.stderr)
        return 1

    disabled_overhead = min(
        off / base for off, base in zip(times["off"], times["base"])) - 1.0
    enabled_overhead = min(
        on / base for on, base in zip(times["on"], times["base"])) - 1.0
    base_s = min(times["base"])
    print(f"baseline {base_s:.2f} CPU-s | telemetry-off "
          f"{disabled_overhead:+.1%} | telemetry-on {enabled_overhead:+.1%}  "
          f"[min CPU-time ratio over {REPEATS} rounds]")

    # The off/off comparison measures the same code path twice, so it
    # reports the noise floor; the disabled-path instrumentation cost is
    # below whatever this says.  A persistent excess means a guard is
    # doing real work while disabled.
    if disabled_overhead > DISABLED_MAX:
        print(f"FAIL: disabled-path overhead {disabled_overhead:+.1%} "
              f"exceeds {DISABLED_MAX:.0%}", file=sys.stderr)
        return 1
    if enabled_overhead > ENABLED_MAX:
        print(f"FAIL: enabled-path overhead {enabled_overhead:+.1%} "
              f"exceeds {ENABLED_MAX:.0%}", file=sys.stderr)
        return 1
    print(f"OK: disabled within {DISABLED_MAX:.0%}, "
          f"enabled within {ENABLED_MAX:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
