"""Package-surface tests: imports, exports, docstrings, import budget."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

ALL_MODULES = [
    name for _, name, _ in pkgutil.walk_packages(
        repro.__path__, prefix="repro.",
    )
]


def test_module_discovery_found_the_tree():
    assert len(ALL_MODULES) > 30
    assert "repro.core.decision" in ALL_MODULES
    assert "repro.memory.controller" in ALL_MODULES


@pytest.mark.parametrize("name", ALL_MODULES)
def test_every_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", ALL_MODULES)
def test_every_module_has_a_docstring(name):
    module = importlib.import_module(name)
    if name.endswith("__main__"):
        return
    assert module.__doc__, f"{name} lacks a module docstring"


def test_top_level_exports_resolve():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol), symbol


@pytest.mark.parametrize(
    "package", ["repro.faults", "repro.lint", "repro.store", "repro.telemetry"])
def test_package_exports_resolve(package):
    # Most of these names resolve on first use; an unknown one must still
    # raise AttributeError, which ``from package import submodule``
    # relies on.
    module = importlib.import_module(package)
    for symbol in module.__all__:
        assert getattr(module, symbol) is not None, symbol
    with pytest.raises(AttributeError):
        module.no_such_name


def test_top_level_quickstart_symbols():
    assert callable(repro.run_simulation)
    assert repro.SimConfig is not None
    assert len(repro.WORKLOAD_NAMES) == 11
    assert len(repro.PAPER_POLICY_NAMES) == 9


def test_version():
    assert repro.__version__ == "1.0.0"


def _loaded_after(code):
    """The sorted ``sys.modules`` names after running ``code`` in a fresh
    interpreter."""
    code += "\nimport sys; print(repr(sorted(sys.modules)))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_simulator_does_not_import_the_linter():
    # The runtime sanitizer lives in repro.sim so that simulating never
    # pays for importing the static analyzer.
    loaded = _loaded_after("import repro.sim.system, repro.experiments.runner")
    assert [m for m in loaded
            if m == "repro.lint" or m.startswith("repro.lint.")] == []


def test_simulating_does_not_import_the_exhibits():
    # repro.experiments resolves its exports lazily, so a run or a sweep
    # never pays for importing the exhibit regenerators (figures,
    # ablations, headline, seeds).
    loaded = _loaded_after("import repro.sim.system, repro.experiments.runner")
    assert [m for m in loaded if m.startswith("repro.experiments.")] == [
        "repro.experiments.runner"]


#: Layers a plain run never uses; each loads on first use.
OPTIONAL_LAYERS = (
    "repro.telemetry.tracer", "repro.telemetry.heatmap",
    "repro.faults.injector", "repro.faults.ecc",
    "repro.workloads.mix", "repro.memory.drambuffer",
    "repro.endurance.flipnwrite", "repro.endurance.startgap",
    "repro.analysis.validation", "repro.analysis.report",
    "repro.checkpoint",
    "concurrent.futures.process", "multiprocessing",
)


def test_a_plain_run_loads_no_optional_layer():
    # What the benchmark's child process imports, then one profile
    # config run straight through, telemetry and faults off.
    loaded = _loaded_after(
        "import repro.experiments.faults, repro.experiments.runner, "
        "repro.store, repro.sim.system\n"
        "from repro.sim.config import SimConfig\n"
        "from repro.sim.system import System\n"
        "System(SimConfig(workload='hmmer', policy='BE-Mellow+SC', "
        "warmup_accesses=500, measure_accesses=1000, "
        "functional_warmup_max=5000)).run()")
    assert [m for m in OPTIONAL_LAYERS if m in loaded] == []


def test_the_command_line_loads_no_linter_rules_or_exhibits():
    # Every verb's arguments are declared on import; the rule engine,
    # the exhibit registries and the simulator load with the verb that
    # runs them.
    loaded = _loaded_after("import repro.cli")
    for module in ("repro.lint.rules", "repro.lint.engine",
                   "repro.experiments.figures",
                   "repro.experiments.ablations",
                   "repro.experiments.headline", "repro.experiments.seeds",
                   "repro.sim.system"):
        assert module not in loaded, module


def test_lazy_registries_resolve():
    import repro.experiments as experiments

    for symbol in experiments.__all__:
        assert getattr(experiments, symbol) is not None, symbol
    assert "fig11" in experiments.ALL_FIGURES
    assert experiments.ALL_ABLATIONS
    with pytest.raises(AttributeError):
        experiments.no_such_exhibit
