"""Fault injection and graceful degradation for resistive memories.

The paper's lifetime argument is analytic: wear accumulates, and the
device is declared dead when the projected damage crosses the endurance
budget.  This package closes the loop end-to-end - cells actually *fail*
during simulation, and the pipeline has to survive them:

* per-cell endurance limits are drawn from the lognormal distribution of
  :mod:`repro.endurance.variability` (seeded, lazy, per line);
* an exhausted cell becomes a stuck-at fault; write-verify detects the
  mismatch at write completion;
* the controller retries the write a bounded number of times on the
  Mellow Writes slow path, then leans on SECDED ECC (one wrong cell per
  line is correctable);
* beyond ECC capacity the line is retired and remapped into a per-bank
  spare region;
* when the spares run out the run ends gracefully in an *uncorrectable*
  terminal state, reported through :class:`repro.sim.stats.RunResult`.

Determinism contract: the package never touches module-global
randomness (enforced by simlint rule SIM010); every draw comes from the
seeded ``random.Random`` injected by :class:`repro.sim.system.System`,
so fault runs are bit-identical per seed and across processes.

Only :class:`FaultConfig` and the ``WRITE_*`` outcomes load with the
package, because every :class:`~repro.sim.config.SimConfig` and the
memory controller need them; the injector and the ECC code resolve on
first use (PEP 562 ``__getattr__``), so a run without faults never
imports them.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.faults.config import FaultConfig
from repro.faults.outcomes import (WRITE_CORRECTED, WRITE_FATAL, WRITE_OK,
                                   WRITE_RETIRED, WRITE_RETRY)

if TYPE_CHECKING:
    from repro.faults.ecc import (CORRECTABLE_BITS, DETECTABLE_BITS,
                                  STATUS_CLEAN, STATUS_CORRECTED,
                                  STATUS_DETECTED, DecodeResult,
                                  codeword_length, decode, encode,
                                  parity_bit_count)
    from repro.faults.injector import FaultInjector, FaultStats

#: Lazily resolved public name -> the submodule that defines it.
_EXPORTS = {
    "FaultInjector": "injector",
    "FaultStats": "injector",
    "encode": "ecc",
    "decode": "ecc",
    "DecodeResult": "ecc",
    "codeword_length": "ecc",
    "parity_bit_count": "ecc",
    "CORRECTABLE_BITS": "ecc",
    "DETECTABLE_BITS": "ecc",
    "STATUS_CLEAN": "ecc",
    "STATUS_CORRECTED": "ecc",
    "STATUS_DETECTED": "ecc",
}

__all__ = [
    "FaultConfig",
    "FaultInjector", "FaultStats",
    "WRITE_OK", "WRITE_CORRECTED", "WRITE_RETRY", "WRITE_RETIRED",
    "WRITE_FATAL",
    "encode", "decode", "DecodeResult", "codeword_length",
    "parity_bit_count", "CORRECTABLE_BITS", "DETECTABLE_BITS",
    "STATUS_CLEAN", "STATUS_CORRECTED", "STATUS_DETECTED",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
