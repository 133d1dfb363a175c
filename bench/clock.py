"""The benchmark's single seam onto host clocks.

Simulation code must never read the host clock (simlint SIM003); the
benchmark exists to read it.  Every host-time read in ``bench/`` goes
through this module, which carries the one suppression.
"""

from __future__ import annotations

import os
import time


def now() -> float:
    """Seconds on the host's monotonic clock; only differences mean anything.

    Measuring host runtime is this module's purpose, hence the suppression.
    """
    return time.perf_counter()   # simlint: ignore[SIM003]


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    times = os.times()
    return (times.user + times.system
            + times.children_user + times.children_system)


def calibrate(iterations: int = 1_000_000) -> float:
    """Host seconds for a fixed pure-Python loop: a measure of host speed."""
    start = now()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return now() - start
