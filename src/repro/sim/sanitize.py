"""Runtime invariant sanitizer.

The static rules (:mod:`repro.lint.rules`) catch hazards visible in source
text; this module arms cheap runtime checks at the seams they cannot see.
It lives beside the simulator rather than in the linter because core
modules import it on every run.  When sanitizing is enabled -
``REPRO_SANITIZE=1`` in the environment or ``SimConfig(sanitize=True)`` -
core components verify their invariants on every mutation and raise a
structured :class:`InvariantViolation` naming the broken invariant and the
simulator state around it.

Armed invariants:

* **event-time-monotonicity** (:class:`repro.sim.events.EventQueue`) -
  the simulated clock never moves backwards.
* **queue-occupancy** (:class:`repro.memory.queues.RequestQueue`) - the
  aggregate size counter stays within ``[0, capacity]`` and always equals
  the sum of the per-bank FIFO lengths.
* **wear-conservation** (:class:`repro.endurance.wear.WearTracker` +
  :class:`repro.memory.controller.MemoryController`) - every write the
  controller accounts for lands in exactly one bank record (the two
  independent tallies agree), and per-bank damage is monotone
  nondecreasing.
* **startgap-bijectivity** (:class:`repro.endurance.startgap.StartGap`) -
  the logical-to-physical remap stays injective and in range after every
  gap move.
* **dependent-read-wait** (:class:`repro.cpu.core.SimpleCore`) - a
  dependent read completes only while the core waits on it; at most one
  is outstanding, so its completion callback carries no read id.
* **result-consistency** (:class:`repro.sim.system.System`) - the
  collected :class:`~repro.sim.stats.RunResult` passes every cross-check
  of :func:`repro.analysis.validation.validate_result` (busy time, bus
  capacity, lifetime re-derivation, request conservation, energy
  decomposition); the violation lists every failed check.

The checks are read-only: a sanitized run either raises or produces
bit-identical results to an unsanitized run (asserted by
``tests/test_sanitizer.py``).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

#: Environment variable that arms the sanitizer globally.
ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Relative tolerance for float conservation checks.  Wear tallies sum
#: thousands of float fractions in different orders on the two sides of
#: the seam, so exact equality is not meaningful.
CONSERVATION_RTOL = 1e-6


class InvariantViolation(AssertionError):
    """A runtime invariant of the simulator was broken.

    Attributes:
        invariant: short kebab-case name of the violated invariant.
        state: snapshot of the relevant simulator state at violation time.
    """

    def __init__(self, invariant: str, message: str,
                 state: Optional[Dict[str, Any]] = None) -> None:
        self.invariant = invariant
        self.state = dict(state) if state else {}
        details = ", ".join(f"{k}={v!r}" for k, v in self.state.items())
        text = f"[{invariant}] {message}"
        if details:
            text += f" ({details})"
        super().__init__(text)


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` arms the sanitizer for this process."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def resolve(sanitize: Optional[bool] = None) -> bool:
    """Resolve a component's ``sanitize`` constructor argument.

    ``True``/``False`` are explicit and win; ``None`` defers to the
    environment, so ``REPRO_SANITIZE=1`` arms components constructed
    without an explicit choice (standalone unit tests, ad-hoc scripts).
    """
    if sanitize is None:
        return env_enabled()
    return sanitize


def check(condition: bool, invariant: str, message: str,
          **state: Any) -> None:
    """Raise :class:`InvariantViolation` unless ``condition`` holds."""
    if not condition:
        raise InvariantViolation(invariant, message, state)


def close_enough(a: float, b: float, rtol: float = CONSERVATION_RTOL) -> bool:
    """Relative float comparison used by conservation checks."""
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))
