"""Documentation anti-rot checks: referenced artifacts must exist."""

import argparse
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

REQUIRED_DOCS = [
    "README.md", "DESIGN.md", "EXPERIMENTS.md",
    "docs/architecture.md", "docs/mechanisms.md", "docs/workloads.md",
    "docs/extending.md", "docs/observability.md",
    "docs/storage.md", "docs/checkpointing.md",
]

#: Prose documents the CLI and environment checks scan.
USER_DOCS = ["README.md"] + sorted(
    str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md"))

#: Code trees an environment variable must be read from to be real.
CODE_DIRS = ("src", "bench", "benchmarks")


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_required_docs_exist_and_are_substantial(name):
    path = ROOT / name
    assert path.exists(), name
    assert len(path.read_text()) > 800, f"{name} looks stubbed"


def _module_references(text):
    """repro.x.y dotted references found in a document."""
    return set(re.findall(r"`(repro(?:\.\w+)+)`", text))


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_module_references_resolve(name):
    import importlib
    text = (ROOT / name).read_text()
    for ref in _module_references(text):
        # Strip trailing attribute references (repro.core.decision.choose_x).
        parts = ref.split(".")
        for depth in range(len(parts), 1, -1):
            candidate = ".".join(parts[:depth])
            try:
                importlib.import_module(candidate)
                break
            except ImportError:
                continue
        else:
            pytest.fail(f"{name}: dangling module reference {ref}")


def test_readme_examples_exist():
    text = (ROOT / "README.md").read_text()
    for match in re.findall(r"examples/(\w+\.py)", text):
        assert (ROOT / "examples" / match).exists(), match


def test_design_lists_every_figure_bench():
    text = (ROOT / "DESIGN.md").read_text()
    for bench in (ROOT / "benchmarks").glob("test_fig*.py"):
        assert bench.name in text, f"DESIGN.md missing {bench.name}"


def test_experiments_covers_all_exhibits():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for exhibit in ("Figure 1", "Figure 2", "Figure 3", "Table IV",
                    "Figure 10", "Figure 11", "Figure 12", "Figure 13",
                    "Figure 14", "Figure 15", "Figure 16", "Figure 17",
                    "Figure 18", "Figure 19"):
        assert exhibit in text, f"EXPERIMENTS.md missing {exhibit}"


def test_design_documents_the_substitutions():
    text = (ROOT / "DESIGN.md").read_text()
    for substituted in ("gem5", "NVMain", "nvsim", "SPEC"):
        assert substituted in text


def _code_text(text):
    """Fenced code blocks plus inline code spans of a Markdown document."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S)
    prose = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    return blocks + re.findall(r"`([^`\n]+)`", prose)


def _cli_verbs():
    from repro.cli import build_parser
    parser = build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return set(subparsers.choices)


@pytest.mark.parametrize("name", USER_DOCS)
def test_documented_cli_verbs_exist(name):
    verbs = _cli_verbs()
    shown = {verb
             for code in _code_text((ROOT / name).read_text())
             for verb in re.findall(
                 r"(?<!from )(?<![\w./-])repro[ \t]+([a-z][a-z-]*)", code)}
    assert sorted(shown - verbs) == [], f"{name}: dead `repro <verb>`"


@pytest.mark.parametrize("name", USER_DOCS)
def test_documented_env_vars_are_read(name):
    code = "".join(
        path.read_text()
        for directory in CODE_DIRS
        for path in sorted((ROOT / directory).rglob("*.py")))
    named = set(re.findall(r"REPRO_[A-Z_]+", (ROOT / name).read_text()))
    dead = sorted(var for var in named if var not in code)
    assert dead == [], f"{name}: read nowhere in {', '.join(CODE_DIRS)}"


#: Documents whose ``SimConfig(...)`` calls must use real fields.
CONFIG_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    str(path.relative_to(ROOT)) for path in (ROOT / "docs").glob("*.md"))


def _sim_config_keywords(text):
    """Top-level keyword names of every ``SimConfig(...)`` call in ``text``.

    Nested calls (``faults=FaultConfig(...)``) and string literals are
    blanked first, so only the config's own keywords remain.
    """
    names = set()
    for match in re.finditer(r"\bSimConfig\(", text):
        depth, end = 1, match.end()
        while depth and end < len(text):
            depth += {"(": 1, ")": -1}.get(text[end], 0)
            end += 1
        args = re.sub(r"\"[^\"]*\"|'[^']*'", '""', text[match.end():end - 1])
        while True:
            flat = re.sub(r"\([^()]*\)", "", args)
            if flat == args:
                break
            args = flat
        names.update(re.findall(r"(?<![\w.=!<>])(\w+)\s*=(?!=)", args))
    return names


@pytest.mark.parametrize("name", CONFIG_DOCS)
def test_documented_sim_config_keywords_are_fields(name):
    import dataclasses
    from repro.sim.config import SimConfig
    fields = {field.name for field in dataclasses.fields(SimConfig)}
    unknown = _sim_config_keywords((ROOT / name).read_text()) - fields
    assert sorted(unknown) == [], f"{name}: no such SimConfig field"
