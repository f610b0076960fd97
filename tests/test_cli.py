"""Command-line interface behavior via the click test runner."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import hvnet.cli
import hvnet.network
from hvnet.cli import main
from hvnet.harness import ExperimentConfig, GridSpec, records_from_jsonl

SYNTH = "synth:classes=2,features=4,samples=160,sep=4.0,seed=3"


@pytest.fixture
def runner():
    return CliRunner()


def test_run_options_default_to_the_config_fields(runner):
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)
                if f.default is not dataclasses.MISSING}
    params = {p.name: p for p in main.commands["run"].params}
    assert set(defaults) - set(params) == {"split_mode", "k_folds"}  # set by --kfold
    help_text = " ".join(runner.invoke(main, ["run", "--help"]).output.split())
    for name in set(defaults) & set(params):
        param, default = params[name], defaults[name]
        assert param.default == default, name
        if param.show_default:
            shown = ", ".join(map(str, default)) if isinstance(default, tuple) else default
            assert re.search(rf"{param.opts[0]} [^\[]*\[default: {re.escape(str(shown))}\]",
                             help_text), name


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


@pytest.mark.parametrize("args, message", [
    (["--seeds", "0"], "n_seeds must be an integer >= 1, got 0"),
    (["--agents", "4", "--agents", "0"], "agent count must be an integer >= 1, got 0"),
    (["--lambda", "nan"], "lambda must be a finite number >= 0, got nan"),
    (["--lambda", "nan", "--allow-off-grid"], "lambda must be a finite number >= 0, got nan"),
    (["--kappa", "0", "--allow-off-grid"], "kappa must be an integer >= 1, got 0"),
    (["--dim", "0", "--allow-off-grid"], "dim must be an integer >= 1, got 0"),
    (["--kfold", "0"], "k must be an integer >= 2, got 0"),
    (["--agents", "2", "--agents", "2"], "agent_counts repeats 2"),
    (["--version", "local"], "versions repeats ExperimentVersion(kind='local'"),
    (["--seed", str(2**64)], f"master_seed must be an integer in [0, 2**64), got {2**64}"),
    (["--seed", "-1"], "master_seed must be an integer in [0, 2**64), got -1"),
], ids=["seeds", "agents", "lambda", "lambda-off-grid", "kappa-off-grid", "dim-off-grid",
        "kfold-zero", "repeated-agents", "repeated-version", "seed-2**64", "seed-negative"])
def test_run_rejects_invalid_config_before_encoding(runner, monkeypatch, args, message):
    encoded = []
    monkeypatch.setattr(hvnet.network, "encode_batch", lambda *a: encoded.append(a))
    result = runner.invoke(main, ["run", "--dataset", SYNTH, "--version", "local", *args])
    assert result.exit_code == 1
    assert message in result.output
    assert "allow_off_grid" not in result.output and "suite aborted" not in result.output
    assert encoded == []


@pytest.mark.parametrize("command, text, message", [
    ("run", '{"d": 5}', "entry 'd' must be an object with a string path"),
    ("run", '{"d": "toy.csv"}', "entry 'd' must be an object with a string path"),
    ("grid", '{"d": {"path": "toy.csv"', "is not valid JSON"),
    ("run", '{"d": {"path": "toy.csv", "split_file": 5}}', "entry 'd' has 'split_file': 5;"),
    ("grid", '{"d": {"path": "toy.csv", "header": "false"}}', "entry 'd' has 'header': 'false';"),
    ("run", '{"d": {"path": "toy.csv", "label_colum": 0}}', "entry 'd' has 'label_colum': 0;"),
], ids=["run-number-entry", "run-string-entry", "grid-truncated", "run-split-file-number",
        "grid-header-string", "run-misspelt-key"])
def test_malformed_manifest_is_a_clean_error(runner, tmp_path, command, text, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text, encoding="utf-8")
    args = ["--version", "local"] if command == "run" else ["--dim", "40"]
    result = runner.invoke(main, [command, "--dataset", "d", "--manifest", str(manifest), *args])
    assert result.exit_code == 1
    assert f"Error: manifest {manifest}" in result.output and message in result.output


@pytest.mark.parametrize("bad_line, message", [
    ('{"dataset": "toy", "n_agents": ', "line 1: Expecting value"),
    ("5", "line 1: a record must be a JSON object, got int"),
], ids=["truncated", "number"])
def test_report_on_a_malformed_jsonl_line_is_a_clean_error(runner, tmp_path, bad_line, message):
    path = tmp_path / "records.jsonl"
    path.write_text(bad_line + "\n", encoding="utf-8")
    result = runner.invoke(main, ["report", str(path)])
    assert result.exit_code == 1
    assert f"Error: {path} {message}" in result.output


@pytest.mark.parametrize("args, message", [
    (["--agents", "1000"], "1000 agents cannot each get a non-empty shard; "
     "the smallest train or test set of a fold has 80 rows"),
    (["--agents", "10", "--agents", "50", "--kfold", "4"], "50 agents cannot each get a "
     "non-empty shard; the smallest train or test set of a fold has 40 rows"),
], ids=["holdout", "kfold"])
def test_run_rejects_unshardable_agent_count_before_encoding(runner, monkeypatch, args, message):
    def fail(*_):
        raise AssertionError("encode_batch called")

    monkeypatch.setattr(hvnet.network, "encode_batch", fail)
    result = runner.invoke(main, ["run", "--dataset", SYNTH, "--version", "local", *args])
    assert result.exit_code == 1
    assert f"dataset synth-L2-K4-M160-s4: {message}" in result.output
    assert "suite aborted" not in result.output


@pytest.mark.parametrize("run_args", [
    # Ten classes at dim 500 score 5,000 weights per row: a 128-row block
    # would be above OpenBLAS's threading threshold, where one prediction of
    # this run used to flip between one and two threads.
    pytest.param([
        "--dataset", "synth:classes=10,features=4,samples=4000,sep=3.0,seed=7",
        "--version", "local", "--classifier", "centroid", "--agents", "100",
        "--seeds", "2", "--seed", "2", "--full-test",
    ], id="scoring"),
    # The protocol's shape: 180-row shards at dim 500, whose ridge products
    # are above the threading threshold.
    pytest.param([
        "--dataset", "synth:classes=4,features=20,samples=2400,sep=2.0,seed=3",
        "--version", "centralized", "--version", "local", "--version", "distributed",
        "--compress", "--agents", "10", "--seeds", "1", "--kfold", "4", "--dim", "500",
    ], id="ridge-fits"),
])
def test_run_records_do_not_depend_on_blas_threads(run_args):
    args = [sys.executable, "-m", "hvnet.cli", "run", *run_args]
    src = str(Path(hvnet.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(args, env=env, capture_output=True, timeout=300, check=True)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


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


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_grid_rejects_non_finite_lambda(runner, lam):
    # NaN would otherwise be solved as lambda = 0 and printed as invalid JSON.
    result = runner.invoke(main, [
        "grid", "--dataset", SYNTH, "--dim", "20", "--lambda", lam, "--kappa", "3",
    ])
    assert result.exit_code == 1
    assert f"lambda must be a finite number >= 0, got {lam}" in result.output


def test_grid_options_default_to_the_grid_spec(runner):
    defaults = {f.name: f.default for f in dataclasses.fields(GridSpec)}
    params = {p.name: p for p in main.commands["grid"].params}
    help_text = " ".join(runner.invoke(main, ["grid", "--help"]).output.split())
    for name, default in defaults.items():
        param = params[name]
        assert param.default == default, name
        if param.show_default:
            shown = ", ".join(map(str, default)) if isinstance(default, tuple) else default
            assert re.search(rf"{param.opts[0]} [^\[]*\[default: {re.escape(str(shown))}\]",
                             help_text), name


@pytest.mark.parametrize("args, message", [
    (["--dim", "50", "--dim", "50"], "dim_values repeats 50"),
    (["--kappa", "0"], "kappa must be an integer >= 1, got 0"),
    (["--lambda", "nan"], "lambda must be a finite number >= 0, got nan"),
    (["--train-fraction", "1.5"], "holdout fraction must be in (0, 1), got 1.5"),
], ids=["repeated-dim", "kappa-zero", "lambda-nan", "fraction"])
def test_grid_rejects_invalid_settings_before_reading_data(runner, monkeypatch, args, message):
    def fail(*_):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(hvnet.cli, "resolve_dataset", fail)
    result = runner.invoke(main, ["grid", "--dataset", SYNTH, *args])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: {message}")


@pytest.mark.parametrize("args, message", [
    (["grid", "--dataset", SYNTH, "--dim", "20", "--seed", str(2**64)], "master_seed"),
    (["run", "--dataset", "synth:classes=abc", "--version", "local"],
     "bad synth parameter 'classes=abc'"),
    (["run", "--dataset", "synth:classes=1", "--version", "local"],
     "n_classes must be an integer >= 2, got 1"),
], ids=["grid-seed", "synth-value", "synth-one-class"])
def test_out_of_range_seed_and_bad_synth_spec_are_clean_errors(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: {message}")


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


def test_report_of_an_empty_record_file_gives_back_its_bytes(runner, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    result = runner.invoke(main, ["report", str(empty), "--format", "jsonl"])
    assert result.exit_code == 0
    assert result.stdout_bytes == b""

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
