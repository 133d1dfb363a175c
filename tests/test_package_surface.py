"""Package-surface tests: imports, exports, docstrings."""

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


def test_top_level_quickstart_symbols():
    assert callable(repro.run_simulation)
    assert repro.SimConfig is not None
    assert len(repro.WORKLOAD_NAMES) == 11
    assert len(repro.PAPER_POLICY_NAMES) == 9


def test_version():
    assert repro.__version__ == "1.0.0"


def test_simulator_does_not_import_the_linter():
    # The runtime sanitizer lives in repro.sim so that simulating never
    # pays for importing the static analyzer.
    code = ("import sys, repro.sim.system, repro.experiments.runner; "
            "print(sorted(m for m in sys.modules "
            "if m == 'repro.lint' or m.startswith('repro.lint.')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_simulating_does_not_import_the_exhibits():
    # repro.experiments resolves its exports lazily, so a run or a sweep
    # never pays for importing the exhibit regenerators (figures,
    # ablations, headline, seeds).
    code = ("import sys, repro.sim.system, repro.experiments.runner; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.experiments.')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['repro.experiments.runner']"


def test_lazy_registries_resolve():
    import repro.experiments as experiments

    for symbol in experiments.__all__:
        assert getattr(experiments, symbol) is not None, symbol
    assert "fig11" in experiments.ALL_FIGURES
    assert experiments.ALL_ABLATIONS
    with pytest.raises(AttributeError):
        experiments.no_such_exhibit
