"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "lbm" in out
    assert "BE-Mellow+SC+WQ" in out
    assert "fig11" in out
    assert "abl_flip_n_write" in out


def test_run_command(capsys):
    code = main([
        "run", "--workload", "hmmer", "--policy", "B-Mellow+SC",
        "--scale", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "hmmer" in out
    assert "B-Mellow+SC" in out
    assert "lifetime_years" in out


def test_sweep_command(capsys):
    code = main([
        "sweep", "--workloads", "hmmer", "--policies", "Norm,Slow",
        "--scale", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("hmmer") >= 2


def test_sweep_rejects_unknown_workload(capsys):
    code = main([
        "sweep", "--workloads", "nosuch", "--policies", "Norm",
        "--scale", "0.05",
    ])
    assert code == 1
    assert "unknown workload" in capsys.readouterr().err


def test_sweep_rejects_unknown_policy(capsys):
    code = main(["sweep", "--workloads", "hmmer", "--policies", "Bogus"])
    assert code == 1
    assert "unknown base policy" in capsys.readouterr().err


def test_figure_command_analytic(capsys):
    assert main(["figure", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_figure_command_table_vi(capsys):
    assert main(["figure", "tab06"]) == 0
    assert "CellC" in capsys.readouterr().out


def test_figure_unknown(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_ablation_unknown(capsys):
    assert main(["ablation", "abl_nope"]) == 2
    assert "unknown ablation" in capsys.readouterr().err


def test_run_requires_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run"])


def test_run_rejects_unknown_workload(capsys):
    # A typo'd name is one clear line on stderr and exit 1 - never an
    # argparse SystemExit or a KeyError traceback.
    code = main(["run", "--workload", "bogus"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown workload" in err
    assert "bogus" in err
    assert "Traceback" not in err


def test_run_rejects_unknown_policy(capsys):
    code = main(["run", "--workload", "hmmer", "--policy", "Slow+XX"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown policy suffix" in err


def test_profile_rejects_unknown_workload(capsys):
    code = main(["profile", "--workload", "nope"])
    assert code == 1
    assert "unknown workload" in capsys.readouterr().err


def test_profile_rejects_unknown_policy(capsys):
    code = main(["profile", "--workload", "hmmer", "--policy", "Wrong"])
    assert code == 1
    assert "unknown base policy" in capsys.readouterr().err


def test_faults_rejects_unknown_policy(capsys):
    code = main(["faults", "--policies", "Norm,Bogus"])
    assert code == 1
    assert "unknown base policy" in capsys.readouterr().err


def test_faults_rejects_bad_seed_count(capsys):
    code = main(["faults", "--seeds", "0"])
    assert code == 1
    assert "--seeds" in capsys.readouterr().err


def test_faults_command(tmp_path, capsys):
    out = tmp_path / "faults.json"
    code = main([
        "faults", "--workload", "zeusmp", "--seeds", "2",
        "--scale", "0.01", "--quiet", "--output", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "Lifetime to failure" in stdout
    assert "Norm" in stdout and "Slow+SC" in stdout
    import json
    doc = json.loads(out.read_text())
    by_policy = {row["policy"]: row for row in doc["rows"]}
    assert set(by_policy) == {"Norm", "BE-Mellow+SC", "Slow+SC"}
    assert (by_policy["Slow+SC"]["mean_survival_ns"]
            > by_policy["Norm"]["mean_survival_ns"])


def test_figure_export_csv(tmp_path, capsys):
    out = tmp_path / "fig01.csv"
    assert main(["figure", "fig01", "--output", str(out)]) == 0
    assert out.exists()
    assert "latency_ns" in out.read_text()


def test_figure_export_json(tmp_path, capsys):
    out = tmp_path / "tab06.json"
    assert main(["figure", "tab06", "--output", str(out)]) == 0
    import json
    data = json.loads(out.read_text())
    assert data["rows"][0]["cell"] == "CellA"


def test_compare_command(capsys):
    code = main([
        "compare", "--workload", "hmmer", "--policy", "B-Mellow+SC",
        "--against", "Norm", "--scale", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Comparison" in out
    assert "lifetime (years)" in out


def test_compare_rejects_bad_policy(capsys):
    assert main([
        "compare", "--workload", "hmmer", "--policy", "Bogus",
    ]) == 2


def test_compare_rejects_checkpoint_flags():
    # Both runs of a comparison would write snapshots under the same
    # names in one directory; only single-run commands take the flags.
    with pytest.raises(SystemExit):
        build_parser().parse_args([
            "compare", "--workload", "hmmer", "--policy", "BE-Mellow+SC",
            "--against", "Norm", "--checkpoint-every", "2000",
            "--checkpoint-dir", "d",
        ])


@pytest.mark.parametrize("flags, message", [
    (["--banks", "3"], "banks must divide evenly across ranks"),
    (["--checkpoint-every", "0"], "checkpoint_every must be >= 1"),
])
def test_run_rejects_invalid_config(capsys, flags, message):
    # SimConfig's own validation surfaces as one error line, exit 1.
    assert main(["run", "--workload", "hmmer", *flags]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert message in lines[0]


def test_sweep_accepts_mixes(capsys):
    code = main([
        "sweep", "--workloads", "mix_light_heavy", "--policies", "Norm",
        "--scale", "0.05",
    ])
    assert code == 0
    assert "mix_light_heavy" in capsys.readouterr().out


def test_run_with_telemetry_and_output(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main([
        "run", "--workload", "hmmer", "--policy", "BE-Mellow+SC",
        "--scale", "0.05", "--telemetry", "--output", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "telemetry bundle:" in stdout
    import json
    document = json.loads(out.read_text())
    assert set(document) == {"result", "telemetry"}
    assert document["telemetry"]["metrics"]["sample_times_ns"]
    assert document["result"]["wear_records"][0]["bank"] == 0


def test_trace_command(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main([
        "trace", "--workload", "hmmer", "--policy", "BE-Mellow+SC",
        "--scale", "0.05", "--output", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "events retained" in stdout
    assert "epochs sampled" in stdout
    assert "ui.perfetto.dev" in stdout
    import json
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]


def test_metrics_command(capsys):
    code = main([
        "metrics", "--workload", "hmmer", "--policy", "Norm",
        "--scale", "0.05",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Telemetry metrics" in out
    assert "queue.write.depth" in out
    assert "ctrl.writes_normal" in out


def test_metrics_match_filter(capsys):
    code = main([
        "metrics", "--workload", "hmmer", "--policy", "Norm",
        "--scale", "0.05", "--match", "queue.",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "queue.read.depth" in out
    assert "ctrl.reads_issued" not in out


def test_metrics_match_without_hit_fails(capsys):
    code = main([
        "metrics", "--workload", "hmmer", "--policy", "Norm",
        "--scale", "0.05", "--match", "nosuchseries",
    ])
    assert code == 1
    assert "no series matching" in capsys.readouterr().err
