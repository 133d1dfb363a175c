"""Mellow Writes (ISCA 2016) reproduction.

A trace-driven resistive-main-memory simulator implementing the paper's
three mechanisms - Bank-Aware Mellow Writes, Eager Mellow Writes and Wear
Quota - on top of an NVMain-like memory-controller substrate, with the
analytic endurance model, Start-Gap wear leveling, synthetic SPEC-like
workloads, and an energy model.

Quickstart::

    from repro import SimConfig, run_simulation

    result = run_simulation(SimConfig(workload="lbm", policy="BE-Mellow+SC"))
    print(result.ipc, result.lifetime_years)

Every name below resolves on first use (PEP 562 ``__getattr__``):
``import repro.sim.system`` runs this file too, and a plain run must not
pay for Start-Gap or the workload mixes because the quickstart names
them.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.core.policies import (PAPER_POLICY_NAMES, WritePolicy,
                                     paper_policies, parse_policy)
    from repro.endurance.model import EnduranceModel
    from repro.endurance.startgap import StartGap
    from repro.endurance.wear import WearTracker
    from repro.sim.config import SimConfig
    from repro.sim.stats import RunResult
    from repro.sim.system import System, run_simulation
    from repro.workloads.mix import MIXES, WorkloadMix, get_mix
    from repro.workloads.profiles import (PROFILES, WORKLOAD_NAMES,
                                          get_profile)

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "EnduranceModel": "repro.endurance.model",
    "MIXES": "repro.workloads.mix",
    "WorkloadMix": "repro.workloads.mix",
    "get_mix": "repro.workloads.mix",
    "PAPER_POLICY_NAMES": "repro.core.policies",
    "PROFILES": "repro.workloads.profiles",
    "RunResult": "repro.sim.stats",
    "SimConfig": "repro.sim.config",
    "StartGap": "repro.endurance.startgap",
    "System": "repro.sim.system",
    "WORKLOAD_NAMES": "repro.workloads.profiles",
    "WearTracker": "repro.endurance.wear",
    "WritePolicy": "repro.core.policies",
    "get_profile": "repro.workloads.profiles",
    "paper_policies": "repro.core.policies",
    "parse_policy": "repro.core.policies",
    "run_simulation": "repro.sim.system",
}

__all__ = [
    "EnduranceModel",
    "MIXES",
    "WorkloadMix",
    "get_mix",
    "PAPER_POLICY_NAMES",
    "PROFILES",
    "RunResult",
    "SimConfig",
    "StartGap",
    "System",
    "WORKLOAD_NAMES",
    "WearTracker",
    "WritePolicy",
    "get_profile",
    "paper_policies",
    "parse_policy",
    "run_simulation",
]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
