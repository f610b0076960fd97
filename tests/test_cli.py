"""Command-line interface behavior via the click test runner."""

import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import hvnet.cli
import hvnet.network
from hvnet.cli import main
from hvnet.records import ExperimentConfig, GridSpec, records_from_jsonl

SYNTH = "synth:classes=2,features=4,samples=160,sep=4.0,seed=3"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def run_records(tmp_path_factory):
    """One run's JSONL: centralized, and local, distributed and compressed at N = 2 and 4."""
    out = tmp_path_factory.mktemp("run") / "run.jsonl"
    result = CliRunner().invoke(main, [
        "run", "--dataset", SYNTH, "--version", "centralized", "--version", "local",
        "--version", "distributed", "--compress", "--agents", "2", "--agents", "4",
        "--seeds", "2", "--dim", "40", "--kappa", "3", "--allow-off-grid", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    return out


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


@pytest.mark.parametrize("data, entry, message", [
    (b"1.0,2.0,a\n3.0,4.0,b\n5.0,6.0\n7.0,8.0,a\n", {}, "row 3 has 2 cells, not 3"),
    (b"0,1\n1,2,2\n", {}, "row 2 has 3 cells, not 2"),
    (b"\xff\xfe1.0,a\n2.0,b\n", {}, "is not UTF-8 text"),
    (b"1.0,2.0,a\n3.0,4.0,b\n", {"label_column": 5}, "label_column 5 is not a column of"),
], ids=["short-row", "long-row", "not-utf-8", "label-column"])
def test_malformed_csv_is_a_clean_error_that_names_its_file(runner, tmp_path, data, entry,
                                                            message):
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"d": {"path": path.name, **entry}}), encoding="utf-8")
    result = runner.invoke(main, ["run", "--dataset", "d", "--manifest", str(manifest),
                                  "--version", "local", "--agents", "1"])
    assert result.exit_code == 1 and result.output.startswith("Error: ")
    assert str(path.resolve()) in result.output and message in result.output


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

    def reject(name):
        raise AssertionError(f"non-finite constant {name} in the grid's output")

    # The printed triple is strict JSON: no NaN or Infinity.
    assert json.loads(result.output, parse_constant=reject) == best


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
    (["run", "--dataset", "synth:classes=5,samples=3,features=2", "--version", "local",
      "--agents", "1", "--seeds", "1"], "n_samples must be an integer >= 5, got 3"),
    (["run", "--dataset", "synth:sep=nan", "--version", "local"],
     "separation must be a finite number >= 0, got nan"),
], ids=["grid-seed", "synth-value", "synth-one-class", "synth-fewer-samples-than-classes",
        "synth-nan-sep"])
def test_out_of_range_seed_and_bad_synth_spec_are_clean_errors(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: {message}")


def test_report_renders_table_and_scatter(runner, run_records):
    table = runner.invoke(main, ["report", str(run_records), "--format", "table"])
    assert table.exit_code == 0 and "rls/local" in table.output
    scatter = runner.invoke(main, ["report", str(run_records), "--scatter", "local:centralized"])
    assert scatter.exit_code == 0
    rows = list(csv.reader(io.StringIO(scatter.output)))
    assert rows[0] == ["dataset", "classifier", "n_agents", "acc_a", "acc_b"]
    # One line per local record, each paired with the one centralized record.
    assert [row[2] for row in rows[1:]] == ["2", "4"]
    assert all(len(row) == 5 for row in rows)


def test_report_gives_back_a_runs_records(runner, run_records):
    jsonl = runner.invoke(main, ["report", str(run_records), "--format", "jsonl"])
    assert jsonl.exit_code == 0
    assert jsonl.stdout_bytes == run_records.read_bytes()
    rendered = runner.invoke(main, ["report", str(run_records), "--format", "csv"])
    assert rendered.exit_code == 0
    rows = list(csv.reader(io.StringIO(rendered.output)))
    assert len(rows) == 1 + len(records_from_jsonl(run_records))


def test_report_rejects_a_run_record_whose_accuracy_is_nan(runner, tmp_path, run_records):
    line = run_records.read_text(encoding="utf-8").splitlines()[0]
    bad, n = re.subn(r'"mean_accuracy":[^,]*', '"mean_accuracy":NaN', line)
    assert n == 1
    path = tmp_path / "nan.jsonl"
    path.write_text(bad + "\n", encoding="utf-8")
    result = runner.invoke(main, ["report", str(path)])
    assert result.exit_code == 1
    assert result.output.startswith(f"Error: {path} line 1: record field 'mean_accuracy': "
                                    "expected a finite number, got nan")


def test_report_of_an_empty_record_file_gives_back_its_bytes(runner, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    result = runner.invoke(main, ["report", str(empty), "--format", "jsonl"])
    assert result.exit_code == 0
    assert result.stdout_bytes == b""

@pytest.mark.parametrize("pair", ["local", "local:", ":centralized"])
def test_report_rejects_a_scatter_pair_without_two_labels(runner, run_records, pair):
    result = runner.invoke(main, ["report", str(run_records), "--scatter", pair])
    assert result.exit_code == 1
    assert "Error: --scatter expects VER_A:VER_B" in result.output


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


# ------------------------------------------------------ malformed-byte fuzz

# A valid input of each kind the CLI reads; the manifest names the CSV and
# the split file, whose indices cover the CSV's 12 rows and both classes.
_VALID_INPUTS = {
    "d.csv": "".join(f"{i % 5}.{i},{i % 3}.5,{'ab'[i % 2]}\n" for i in range(12)).encode(),
    "manifest.json": json.dumps({"d": {"path": "d.csv", "label_column": -1, "header": False,
                                       "split_file": "split.json"}}).encode(),
    "split.json": json.dumps({"train": list(range(8)), "test": list(range(8, 12))}).encode(),
}


def _edit(data: bytes, draw) -> bytes:
    """``data`` after one to three edits: flip one bit of a byte, insert a byte, or delete one."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "insert", "delete"]))
        if op == "insert":
            buf.insert(draw(st.sampled_from(range(len(buf) + 1))), draw(st.integers(0, 255)))
        elif buf:
            where = draw(st.sampled_from(range(len(buf))))
            if op == "flip":
                buf[where] ^= 1 << draw(st.integers(0, 7))
            else:
                del buf[where]
    return bytes(buf)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None, max_examples=200, derandomize=True)
@given(target=st.sampled_from([*_VALID_INPUTS, "run.jsonl"]), data=st.data())
def test_malformed_input_bytes_exit_cleanly(fuzz_dir, run_records, target, data):
    # Whatever a few edited bytes make of an input, each command exits 0, or
    # exits 1 with an "Error:" message; any other exception is a bug.
    files = {**_VALID_INPUTS, "run.jsonl": run_records.read_bytes()}
    for name, valid in files.items():
        (fuzz_dir / name).write_bytes(_edit(valid, data.draw) if name == target else valid)
    if target == "run.jsonl":
        records = str(fuzz_dir / "run.jsonl")
        calls = [["report", records, "--format", fmt] for fmt in ("table", "csv", "jsonl")]
        calls.append(["report", records, "--scatter", "local:centralized"])
    else:
        data_args = ["--dataset", "d", "--manifest", str(fuzz_dir / "manifest.json")]
        calls = [["run", *data_args, "--version", "local", "--agents", "1", "--seeds", "1",
                  "--dim", "16", "--kappa", "3", "--allow-off-grid"],
                 ["grid", *data_args, "--dim", "16", "--lambda", "1", "--kappa", "3"]]
    for args in calls:
        result = CliRunner().invoke(main, args)
        if result.exit_code != 0:
            assert isinstance(result.exception, SystemExit), (args, result.exception)
            assert result.exit_code == 1 and result.output.startswith("Error:"), result.output
