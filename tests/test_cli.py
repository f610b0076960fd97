"""Command-line interface behavior via the click test runner."""

import json

import pytest
from click.testing import CliRunner

from hvnet.cli import main
from hvnet.harness import records_from_jsonl

SYNTH = "synth:classes=2,features=4,samples=160,sep=4.0,seed=3"


@pytest.fixture
def runner():
    return CliRunner()


def test_run_writes_jsonl(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    result = runner.invoke(main, [
        "run", "--dataset", SYNTH, "--version", "centralized", "--version", "local",
        "--agents", "4", "--seeds", "2", "--seed", "1",
        "--dim", "40", "--kappa", "3", "--allow-off-grid", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    records = records_from_jsonl(out)
    assert {r.version for r in records} == {"centralized", "local"}
    assert all(0.0 <= r.mean_accuracy <= 1.0 for r in records)


def test_run_is_deterministic_across_invocations(runner, tmp_path):
    args = [
        "run", "--dataset", SYNTH, "--version", "distributed", "--compress",
        "--version", "local", "--agents", "4", "--seeds", "2",
        "--dim", "40", "--kappa", "3", "--allow-off-grid",
    ]
    first = runner.invoke(main, args + ["--out", str(tmp_path / "a.jsonl")])
    second = runner.invoke(main, args + ["--out", str(tmp_path / "b.jsonl")])
    assert first.exit_code == 0 and second.exit_code == 0
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_run_table_to_stdout(runner):
    result = runner.invoke(main, [
        "run", "--dataset", SYNTH, "--version", "centralized",
        "--seeds", "1", "--dim", "40", "--kappa", "3", "--allow-off-grid", "--format", "table",
    ])
    assert result.exit_code == 0
    assert "N=1" in result.output and "rls/centralized" in result.output


def test_run_compress_requires_distributed(runner):
    result = runner.invoke(main, [
        "run", "--dataset", SYNTH, "--version", "local", "--compress",
    ])
    assert result.exit_code != 0
    assert "distributed" in result.output


def test_run_unknown_dataset_fails_cleanly(runner):
    result = runner.invoke(main, ["run", "--dataset", "nope", "--version", "local"])
    assert result.exit_code != 0
    assert "nope" in result.output


def test_grid_restricted_search(runner, tmp_path):
    out = tmp_path / "best.json"
    result = runner.invoke(main, [
        "grid", "--dataset", SYNTH, "--seed", "2",
        "--dim", "40", "--dim", "80", "--lambda", "1.0", "--kappa", "3",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    best = json.loads(out.read_text())
    assert best["dim"] in (40, 80) and best["lambda"] == 1.0 and best["kappa"] == 3


def test_grid_rejects_invalid_kappa(runner):
    result = runner.invoke(main, [
        "grid", "--dataset", SYNTH, "--dim", "40", "--lambda", "1.0", "--kappa", "0",
    ])
    assert result.exit_code != 0
    assert "kappa must be an integer >= 1, got 0" in result.output


def test_report_renders_table_and_scatter(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    ran = runner.invoke(main, [
        "run", "--dataset", SYNTH, "--version", "centralized", "--version", "local",
        "--agents", "4", "--seeds", "1", "--dim", "40", "--kappa", "3", "--allow-off-grid",
        "--out", str(out),
    ])
    assert ran.exit_code == 0
    table = runner.invoke(main, ["report", str(out), "--format", "table"])
    assert table.exit_code == 0 and "rls/local" in table.output
    scatter = runner.invoke(main, ["report", str(out), "--scatter", "local:centralized"])
    assert scatter.exit_code == 0
    assert scatter.output.splitlines()[0] == "dataset,classifier,n_agents,acc_a,acc_b"


def test_report_rejects_unknown_scatter_label(runner, tmp_path):
    out = tmp_path / "records.jsonl"
    ran = runner.invoke(main, [
        "run", "--dataset", SYNTH, "--version", "centralized", "--seeds", "1",
        "--dim", "40", "--kappa", "3", "--allow-off-grid", "--out", str(out),
    ])
    assert ran.exit_code == 0
    result = runner.invoke(main, ["report", str(out), "--scatter", "locl:centralized"])
    assert result.exit_code == 1
    assert "unknown version label 'locl'" in result.output


def test_report_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["report", str(tmp_path / "absent.jsonl")])
    assert result.exit_code != 0
