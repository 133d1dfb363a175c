"""Experiment regenerators: one callable per paper exhibit + studies.

``ALL_FIGURES`` maps exhibit ids (fig01..fig19, tab04, tab06) to
regenerator callables; ``ALL_ABLATIONS`` the ablation studies.  The
benchmark harness and the CLI (`python -m repro figure <id>`) both
resolve through these registries.

Every name resolves on first use (PEP 562 ``__getattr__``): importing
:mod:`repro.experiments.runner` to run a sweep does not import the
exhibit modules.
"""

from importlib import import_module
from typing import Any

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "ALL_ABLATIONS": "ablations",
    "ALL_FIGURES": "figures",
    "Runner": "runner",
    "SweepProgress": "runner",
    "default_jobs": "runner",
    "default_runner": "runner",
    "headline_summary": "headline",
    "seed_stability": "seeds",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
