"""Checks of the benchmark itself.  Run with ``pytest bench/``.

The smoke run (``run.py --smoke``: every workload at tiny sizes, untraced
and traced) takes well under a minute; the checks below read its report.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import spans as sp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args: str, cwd: Path = ROOT, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
        env=dict(os.environ, **env))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> tuple:
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    process = run_bench("--smoke", "--out", str(out))
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text(encoding="utf-8"))["reports"]


def test_spec_follows_the_schema() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for name in names + [m["name"] for m in metrics]:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_prints_the_result_line(smoke: tuple) -> None:
    result, _ = smoke
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_every_metric_is_reported_with_its_unit(smoke: tuple) -> None:
    result, _ = smoke
    for workload in SPEC["workloads"]:
        for mode, wanted in (("untraced", SPEC["end_to_end"]),
                             ("traced", SPEC["per_layer"])):
            for metric in wanted:
                key = f"{workload['name']}/{mode}/{metric['name']}"
                assert result["metrics"][key]["unit"] == metric["unit"], key


def test_tracing_leaves_results_alone(smoke: tuple) -> None:
    _, reports = smoke
    digests: dict = {}
    for report in reports:
        digests.setdefault(report["workload"], set()).add(report["results_digest"])
    assert all(len(found) == 1 for found in digests.values()), digests


def test_spans_nest_and_self_times_are_not_negative(smoke: tuple) -> None:
    _, reports = smoke
    for report in reports:
        spans = report["spans"]
        assert bool(spans) == bool(report["trace"])
        for name, start, end, parent in spans:
            assert start <= end, name
            if parent >= 0:
                assert spans[parent][1] <= start and end <= spans[parent][2], name
        assert min(sp.self_times(spans), default=0.0) >= -1e-9


def test_attributed_time_plus_remainder_is_the_measure_span(smoke: tuple) -> None:
    _, reports = smoke
    for report in (r for r in reports if r["trace"]):
        metrics = report["metrics"]
        measure = metrics["sim.measure_s"]
        attributed = metrics["sim.attributed_frac"] * measure
        assert attributed + metrics["cpu.remainder_s"] == pytest.approx(measure, rel=0.01)


def test_spans_account_for_the_timed_phase(smoke: tuple) -> None:
    _, reports = smoke
    for report in (r for r in reports if r["trace"]):
        metrics = report["metrics"]
        covered = metrics["bench.span_coverage_frac"] + metrics["bench.trace_overhead_frac"]
        assert covered == pytest.approx(1.0, abs=0.05), report["workload"]


def test_self_time_subtracts_children() -> None:
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0],
             ["c", 2.0, 3.0, 1]]
    assert sp.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sp.descendants(spans, 1) == [3]


def test_refuses_the_reference_path() -> None:
    process = run_bench("--workload", "hit", REPRO_NO_FASTPATH="1")
    assert process.returncode == 2
    assert process.stdout.strip() == ""


def test_fails_without_the_simulator_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    process = run_bench("--workload", "hit", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert process.stdout.strip() == ""
