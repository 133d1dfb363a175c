#!/usr/bin/env python3
"""Compare the whole wear-limiting/leveling zoo on one workload.

Combines the paper's temporal technique (Mellow Writes) with the physical
techniques from its related-work section - Flip-N-Write, DRAM write
buffering, write pausing - and renders the lifetimes as a terminal bar
chart against the 8-year target.  Also reports the measured leveling
efficiency of Start-Gap against no leveling.

Usage:
    python examples/wear_limiting_zoo.py [workload]
"""

import os
import sys

from repro import SimConfig, run_simulation
from repro.analysis.charts import bar_chart
from repro.endurance.leveling import (
    NoLeveler,
    StartGapLeveler,
    measure_efficiency,
)

_SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))


def make_config(**kwargs):
    """A SimConfig honouring REPRO_SCALE (set it <1 for quick runs)."""
    config = SimConfig(**kwargs)
    if _SCALE != 1.0:
        config = config.scaled(_SCALE)
    return config


CONFIGS = [
    ("Norm", dict(policy="Norm")),
    ("Norm + Flip-N-Write", dict(policy="Norm", flip_n_write=True)),
    ("Norm + DRAM buffer", dict(policy="Norm", dram_buffer_entries=4096)),
    ("BE-Mellow+SC", dict(policy="BE-Mellow+SC")),
    ("BE-Mellow+SC+WP (pausing)", dict(policy="BE-Mellow+SC+WP")),
    ("BE-Mellow+SC + FNW", dict(policy="BE-Mellow+SC", flip_n_write=True)),
    ("BE-Mellow+SC+WQ", dict(policy="BE-Mellow+SC+WQ")),
]


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "milc"
    print(f"workload: {workload}\n")

    lifetimes = []
    ipcs = []
    for label, kwargs in CONFIGS:
        result = run_simulation(make_config(workload=workload, **kwargs))
        lifetimes.append((label, min(result.lifetime_years, 500.0)))
        ipcs.append((label, result.ipc))

    print("Lifetime (years; | marks the 8-year target):\n")
    print(bar_chart(lifetimes, reference=8.0, reference_label="8-year target",
                    unit=" y"))
    print("\nIPC:\n")
    print(bar_chart(ipcs, unit=" ipc"))

    print("\nWear-leveler efficiency under a 4-line hotspot "
          "(fraction of ideal lifetime):\n")
    levelers = [
        ("none", NoLeveler(64)),
        ("Start-Gap (paper)", StartGapLeveler(64, psi=10)),
    ]
    efficiency = [
        (label, measure_efficiency(leveler, writes=100_000))
        for label, leveler in levelers
    ]
    print(bar_chart(efficiency, unit=""))


if __name__ == "__main__":
    main()
