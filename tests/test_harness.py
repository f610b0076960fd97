"""Grid search, suite running, statistics, and report formats."""

import csv
import io
import json
import pickle
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hvnet.harness
import hvnet.network
from hvnet.classifiers import evaluate, evaluate_shards
from hvnet.data import SplitSpec, resolve_dataset, split, synth_blobs
from hvnet.errors import (
    InvalidParameterError,
    PairingError,
    ParseError,
    SuiteError,
    UndefinedCorrelationError,
)
from hvnet.harness import grid_search, run_suite
from hvnet.hdc import SeedSpec
from hvnet.records import (
    DEFAULT_DIM_GRID,
    DEFAULT_KAPPA_GRID,
    DEFAULT_LAMBDA_GRID,
    ExperimentConfig,
    ExperimentVersion,
    GridSpec,
    ResultRecord,
    format_table,
    pearson,
    records_from_jsonl,
    records_to_csv,
    records_to_jsonl,
    relative_improvement,
    report,
    scatter_export,
)


def small_config(**overrides):
    base = dict(
        dataset="synth:classes=3,features=5,samples=300,sep=3.0,seed=1",
        versions=(
            ExperimentVersion("centralized"),
            ExperimentVersion("local"),
            ExperimentVersion("distributed"),
        ),
        agent_counts=(4,),
        dim=60,
        lam=1.0,
        kappa=7,
        n_seeds=2,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fake_record(**overrides):
    base = dict(
        dataset="toy", version="local", classifier="rls", compressed=False,
        n_agents=10, dim=100, lam=1.0, kappa=7, n_seeds=2, master_seed=0,
        # mean_accuracy and std_accuracy are np.mean and np.std of per_seed_mean.
        per_seed_mean=(0.7, 0.74), mean_accuracy=0.72, std_accuracy=0.020000000000000018,
        per_agent_mean=(0.71, 0.73) * 5, payload_values_per_producer=300,
        payload_bytes_per_producer=2400, config_hash="0123456789abcdef" * 4,
    )
    base.update(overrides)
    return ResultRecord(**base)


# ------------------------------------------------------------ grid defaults


def test_grid_defaults_match_published_ranges():
    assert DEFAULT_DIM_GRID == tuple(range(50, 1501, 50))
    assert len(DEFAULT_DIM_GRID) == 30
    assert DEFAULT_LAMBDA_GRID == tuple(2.0**e for e in range(-10, 6))
    assert len(DEFAULT_LAMBDA_GRID) == 16
    assert DEFAULT_KAPPA_GRID == (1, 3, 7, 15)
    assert GridSpec().size == 1920


def test_config_defaults_to_the_papers_ten_seeds():
    assert ExperimentConfig(dataset="synth", versions=(ExperimentVersion("local"),)).n_seeds == 10


def test_config_dim_range_starts_at_the_grids_first_dim():
    assert small_config(dim=50).dim == 50
    with pytest.raises(InvalidParameterError, match=r"dim=49 is outside the search range \[50, "):
        small_config(dim=49)


def test_config_rejects_off_grid_hyperparameters():
    with pytest.raises(InvalidParameterError, match="allow_off_grid"):
        small_config(dim=20)
    with pytest.raises(InvalidParameterError, match="allow_off_grid"):
        small_config(kappa=31)
    with pytest.raises(InvalidParameterError, match="allow_off_grid"):
        small_config(lam=100.0)
    cfg = small_config(dim=20, allow_off_grid=True)
    assert cfg.dim == 20
    # Only a bool turns the range test off: "no" and 1 are true, but not flags.
    for flag in ("no", 1):
        message = f"allow_off_grid must be a bool, got {flag!r}"
        with pytest.raises(InvalidParameterError, match=message):
            small_config(dim=20, allow_off_grid=flag)


@pytest.mark.parametrize("allow_off_grid", [False, True])
@pytest.mark.parametrize("overrides, message", [
    ({"lam": float("nan")}, "lambda must be a finite number >= 0, got nan"),
    ({"lam": -1.0}, "lambda must be a finite number >= 0"),
    ({"kappa": 0}, "kappa must be an integer >= 1, got 0"),
    ({"kappa": 2.5}, "kappa must be an integer >= 1"),
    ({"dim": 0}, "dim must be an integer >= 1, got 0"),
    ({"dim": 60.0}, "dim must be an integer >= 1"),
    ({"n_seeds": 0}, "n_seeds must be an integer >= 1, got 0"),
    ({"agent_counts": ()}, "agent_counts must hold at least one"),
    ({"agent_counts": (4, 0)}, "agent count must be an integer >= 1, got 0"),
    ({"versions": ()}, "versions must hold at least one entry"),
    ({"versions": (ExperimentVersion("local"),) * 2}, "versions repeats ExperimentVersion"),
    ({"agent_counts": (4, 2, 4)}, "agent_counts repeats 4"),
    ({"eval_on_full_test": "no"}, "eval_on_full_test must be a bool, got 'no'"),
    ({"eval_on_full_test": 1}, "eval_on_full_test must be a bool, got 1"),
    # These built a config whose suite then failed with an AttributeError or
    # TypeError, or with numpy's ambiguous-truth ValueError (an array).
    ({"versions": ("local",)}, "versions must hold ExperimentVersion entries, got 'local'"),
    ({"versions": {ExperimentVersion("local")}}, "versions must be a tuple or a list, got set"),
    ({"agent_counts": np.array([2, 4])}, "agent_counts must be a tuple or a list, got ndarray"),
    ({"dataset": 5}, "dataset must be a str, got 5"),
    ({"manifest": 5}, "manifest must be None, a str or a path, got 5"),
], ids=["lam-nan", "lam-negative", "kappa-zero", "kappa-float", "dim-zero", "dim-float",
        "no-seeds", "no-agent-counts", "agent-count-zero", "no-versions", "repeated-version",
        "repeated-agent-count", "full-test-string", "full-test-int", "version-string",
        "version-set", "agent-count-array", "dataset-int", "manifest-int"])
def test_config_rejects_invalid_values_before_the_range_test(overrides, message, allow_off_grid):
    with pytest.raises(InvalidParameterError, match=message):
        small_config(allow_off_grid=allow_off_grid, **overrides)


def test_settings_accept_a_path_manifest_and_lists():
    config = small_config(manifest=Path("manifest.json"), versions=[ExperimentVersion("local")],
                          agent_counts=[2, 4])
    assert config.manifest == Path("manifest.json") and config.cells[-1][1] == 4
    assert GridSpec(dim_values=[50, 100]).dim_values == [50, 100]


@pytest.mark.parametrize("overrides, message", [
    ({"split_mode": "loo"}, "unknown split mode 'loo'"),
    ({"split_mode": "kfold", "k_folds": 2.5}, "k must be an integer >= 2, got 2.5"),
    ({"split_mode": "kfold", "k_folds": True}, "k must be an integer >= 2, got True"),
    ({"split_mode": "kfold", "k_folds": 1}, "k must be an integer >= 2, got 1"),
    ({"train_fraction": 1.5}, r"holdout fraction must be in \(0, 1\), got 1.5"),
    ({"train_fraction": float("nan")}, r"holdout fraction must be in \(0, 1\), got nan"),
    # A setting that the split mode does not read is checked too.
    ({"k_folds": "x"}, "k must be an integer >= 2, got 'x'"),
    ({"k_folds": 1}, "k must be an integer >= 2, got 1"),
    ({"k_folds": True}, "k must be an integer >= 2, got True"),
    ({"split_mode": "kfold", "train_fraction": 7.0}, r"fraction must be in \(0, 1\), got 7.0"),
    ({"split_mode": "kfold", "train_fraction": float("nan")}, r"in \(0, 1\), got nan"),
], ids=["mode", "k-float", "k-bool", "k-one", "fraction-above-one", "fraction-nan",
        "holdout-k-string", "holdout-k-one", "holdout-k-bool", "kfold-fraction-seven",
        "kfold-fraction-nan"])
def test_config_rejects_split_settings_before_reading_data(monkeypatch, overrides, message):
    def fail(*_):
        raise AssertionError("a manifest or dataset was read")

    monkeypatch.setattr(hvnet.harness, "load_manifest", fail)
    monkeypatch.setattr(hvnet.harness, "resolve_dataset", fail)
    with pytest.raises(InvalidParameterError, match=message):
        run_suite(small_config(manifest="manifest.json", **overrides))


def test_config_split_spec_holds_both_settings_in_each_mode():
    assert small_config(k_folds=3).split_spec.fraction == 0.5
    spec = small_config(split_mode="kfold", k_folds=3, train_fraction=0.25).split_spec
    assert (spec.mode, spec.k, spec.seed) == ("kfold", 3, SeedSpec(5).child("split"))


def test_numpy_scalar_settings_write_the_records_of_python_numbers():
    # Every number and flag a record or its config_hash carries, as a numpy
    # scalar; np.True_ once ran the whole suite and then failed to hash the config.
    versions = small_config().versions
    as_numpy_versions = (*versions, ExperimentVersion("distributed", np.True_))
    versions += (ExperimentVersion("distributed", compression=True),)
    settings = dict(agent_counts=(4,), dim=60, lam=0.5, kappa=7, n_seeds=2, master_seed=5,
                    k_folds=4, train_fraction=0.5, eval_on_full_test=True, allow_off_grid=False)
    as_numpy = dict(
        settings, agent_counts=(np.int64(4),), dim=np.int64(60), lam=np.float32(0.5),
        kappa=np.int32(7), n_seeds=np.int16(2), master_seed=np.uint64(5),
        k_folds=np.int64(4), train_fraction=np.float32(0.5),
        eval_on_full_test=np.True_, allow_off_grid=np.False_,
    )
    config = small_config(**as_numpy, versions=as_numpy_versions)
    want, got = run_suite(small_config(**settings, versions=versions)), run_suite(config)
    for render in (records_to_jsonl, records_to_csv, format_table):
        assert render(got) == render(want)
    assert all(type(getattr(config, name)) is type(value) for name, value in settings.items())
    assert type(config.agent_counts[0]) is int



def test_grid_search_returns_python_numbers():
    ds = synth_blobs(2, 4, 120, 3.0, SeedSpec(0))
    grid = GridSpec(dim_values=(np.int64(40),), lambda_values=(np.float32(0.5),),
                    kappa_values=(np.int64(3),))
    triple = grid_search(ds, grid, SeedSpec(1))
    assert triple == (40, 0.5, 3)
    assert [type(x) for x in triple] == [int, float, int]


def test_grid_search_single_triple():
    ds = synth_blobs(2, 4, 120, 3.0, SeedSpec(0))
    grid = GridSpec(dim_values=(40,), lambda_values=(0.5,), kappa_values=(3,))
    assert grid_search(ds, grid, SeedSpec(1)) == (40, 0.5, 3)


def test_grid_search_tie_prefers_smaller():
    # Generous separation makes every candidate perfect, so the tie rule decides.
    ds = synth_blobs(2, 4, 200, 12.0, SeedSpec(2))
    grid = GridSpec(dim_values=(80, 40), lambda_values=(2.0, 1.0), kappa_values=(7, 3))
    assert grid_search(ds, grid, SeedSpec(3)) == (40, 1.0, 3)


# Triples selected by the per-lambda Cholesky search that preceded the
# one-tridiagonalisation sweep; the sweep must pick the same ones.  The primal
# grid trains on 200 rows (dims below that), the dual one on 60 (dims above).
PINNED_GRID_TRIPLES = [
    ("synth:classes=3,features=6,samples=400,sep=1.0,seed=3", (30, 60),
     [(60, 32.0, 7), (60, 32.0, 7), (30, 4.0, 3), (30, 2.0**-10, 7)]),
    ("synth:classes=3,features=6,samples=120,sep=1.0,seed=4", (80, 160),
     [(80, 0.25, 7), (80, 8.0, 1), (80, 2.0, 1), (80, 32.0, 1)]),
]


@pytest.mark.parametrize("dataset, dims, triples", PINNED_GRID_TRIPLES, ids=["primal", "dual"])
def test_grid_search_selects_pinned_triples(dataset, dims, triples):
    ds = resolve_dataset(dataset)
    grid = GridSpec(dim_values=dims, kappa_values=(1, 3, 7))
    assert [grid_search(ds, grid, SeedSpec(s)) for s in range(4)] == triples


@pytest.mark.parametrize("dataset, dims, triples", PINNED_GRID_TRIPLES, ids=["primal", "dual"])
def test_grid_scoring_equals_per_model_evaluate(dataset, dims, triples, monkeypatch):
    scored = []

    def checked(models_per_shard, H, labels, shards):
        got = evaluate_shards(models_per_shard, H, labels, shards)
        assert shards is None and len(models_per_shard) == 1
        assert got == [[evaluate(m, H, labels) for m in models_per_shard[0]]]
        scored.append(len(models_per_shard[0]))
        return got

    monkeypatch.setattr(hvnet.harness, "evaluate_shards", checked)
    ds = resolve_dataset(dataset)
    grid = GridSpec(dim_values=dims, kappa_values=(1, 3, 7))
    assert [grid_search(ds, grid, SeedSpec(s)) for s in range(4)] == triples
    assert scored == [len(DEFAULT_LAMBDA_GRID)] * (4 * len(dims) * 3)


@pytest.mark.parametrize("kappa", [0, -2, 1.5])
def test_grid_search_rejects_invalid_kappa(kappa):
    # A grid with an invalid kappa cannot be built, so nothing is ever encoded.
    with pytest.raises(InvalidParameterError, match="kappa"):
        GridSpec(dim_values=(40,), lambda_values=(0.5,), kappa_values=(3, kappa))


@pytest.mark.parametrize("axes, message", [
    ({"lambda_values": (0.5, float("nan"))}, "lambda must be"),
    ({"lambda_values": (float("inf"),)}, "lambda must be"),
    ({"lambda_values": (-1.0, 0.5)}, "lambda must be"),
    ({"dim_values": ()}, "dim_values must hold at least one entry"),
    ({"lambda_values": ()}, "lambda_values must hold at least one entry"),
    ({"kappa_values": ()}, "kappa_values must hold at least one entry"),
])
def test_grid_search_rejects_invalid_lambda_or_empty_axis(axes, message):
    # Checked when the grid is built, before any data are split or encoded.
    with pytest.raises(InvalidParameterError, match=message):
        GridSpec(**{"dim_values": (40,), "lambda_values": (0.5,), "kappa_values": (3,), **axes})


# Empty axes, and kappas and lambdas out of range, are cases of the two tests above.
@pytest.mark.parametrize("settings, message", [
    ({"dim_values": (50, 100, 50)}, "dim_values repeats 50"),
    ({"lambda_values": (0.5, 4.0, 0.5)}, "lambda_values repeats 0.5"),
    ({"kappa_values": (3, 3)}, "kappa_values repeats 3"),
    ({"dim_values": (50, 0)}, "dim must be an integer >= 1, got 0"),
    ({"dim_values": (2.5,)}, "dim must be an integer >= 1, got 2.5"),
    ({"kappa_values": (3, 2.5)}, "kappa must be an integer >= 1, got 2.5"),
    ({"train_fraction": 0.0}, r"holdout fraction must be in \(0, 1\), got 0.0"),
    ({"train_fraction": 1.0}, r"holdout fraction must be in \(0, 1\), got 1.0"),
    ({"train_fraction": float("nan")}, r"holdout fraction must be in \(0, 1\), got nan"),
    ({"dim_values": {50, 100}}, "dim_values must be a tuple or a list, got set"),
    ({"lambda_values": np.array([0.5, 4.0])}, "lambda_values must be a tuple or a list, got nd"),
], ids=["repeated-dim", "repeated-lambda", "repeated-kappa", "dim-zero", "dim-float",
        "kappa-float", "fraction-zero", "fraction-one", "fraction-nan", "dim-set",
        "lambda-array"])
def test_grid_spec_rejects_invalid_settings_at_construction(settings, message):
    with pytest.raises(InvalidParameterError, match=message):
        GridSpec(**{"dim_values": (50, 100), "lambda_values": (0.5, 4.0), "kappa_values": (3,),
                    **settings})


def test_grid_search_splits_at_the_grid_spec_share(monkeypatch):
    # The grid's split is the default stratified holdout, at the grid's share.
    specs = []

    def recording_split(ds, spec):
        specs.append(spec)
        return split(ds, spec)

    monkeypatch.setattr(hvnet.harness, "split", recording_split)
    ds = synth_blobs(2, 4, 120, 3.0, SeedSpec(0))
    grid = GridSpec(dim_values=(40,), lambda_values=(0.5,), kappa_values=(3,), train_fraction=0.3)
    grid_search(ds, grid, SeedSpec(1))
    assert specs == [SplitSpec(fraction=0.3, seed=SeedSpec(1).child("grid_split"))]
    assert (specs[0].mode, specs[0].stratified) == ("holdout", True)


# ---------------------------------------------------------------- pearson


def test_pearson_self_and_negation():
    xs = np.array([0.2, 0.5, 0.9, 0.4])
    assert pearson(xs, xs) == pytest.approx(1.0)
    assert pearson(xs, -xs) == pytest.approx(-1.0)


def test_pearson_matches_hand_formula():
    xs = np.array([1.0, 2.0, 3.0])
    ys = np.array([1.0, 2.0, 4.0])
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    oracle = float((dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy)))
    assert abs(pearson(xs, ys) - oracle) < 1e-12


def test_pearson_of_two_values_is_their_sign():
    assert pearson([0.1, 0.3], [2.0, 5.0]) == pytest.approx(1.0)
    assert pearson([0.1, 0.3], [5.0, 2.0]) == pytest.approx(-1.0)


def test_pearson_zero_variance_undefined():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        pearson([1.0], [2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pearson_rejects_non_finite_values(bad):
    with pytest.raises(InvalidParameterError, match="finite"):
        pearson([0.2, bad, 0.9], [0.1, 0.5, 0.7])
    with pytest.raises(InvalidParameterError, match="finite"):
        pearson([0.2, 0.5, 0.9], [0.1, 0.5, bad])


# --------------------------------------------------- relative improvement


def test_relative_improvement_values():
    records = [
        fake_record(version="local", n_agents=10, mean_accuracy=0.74),
        fake_record(version="distributed", n_agents=10, mean_accuracy=0.82),
        fake_record(version="local", n_agents=100, mean_accuracy=0.62),
        fake_record(version="distributed", n_agents=100, mean_accuracy=0.78),
    ]
    out = relative_improvement(records)
    assert out[10] == pytest.approx(100 * 0.08 / 0.74)  # 10.81%
    assert out[100] == pytest.approx(100 * 0.16 / 0.62)  # 25.81%


def test_relative_improvement_equal_is_zero():
    records = [
        fake_record(version="local", mean_accuracy=0.5),
        fake_record(version="distributed", mean_accuracy=0.5),
    ]
    assert relative_improvement(records)[10] == 0.0


def test_relative_improvement_of_a_zero_local_accuracy_names_its_cell():
    records = [
        fake_record(version="local", n_agents=10, mean_accuracy=0.6),
        fake_record(version="distributed", n_agents=10, mean_accuracy=0.7),
        fake_record(version="local", n_agents=20, mean_accuracy=0.0),
        fake_record(version="distributed", n_agents=20, mean_accuracy=0.4),
    ]
    with pytest.raises(InvalidParameterError, match=r"\('toy', 'rls', 20\).*mean_accuracy is 0"):
        relative_improvement(records)


def test_relative_improvement_rejects_two_dataset_classifier_groups():
    records = [fake_record(version=v, classifier=c)
               for c in ("rls", "centroid") for v in ("local", "distributed")]
    with pytest.raises(PairingError, match="records span multiple dataset/classifier groups"):
        relative_improvement(records)


@pytest.mark.parametrize("render", [records_to_csv, format_table], ids=["csv", "table"])
def test_reports_of_no_records_are_rejected(render):
    with pytest.raises(InvalidParameterError, match="no records to report"):
        render([])


def test_relative_improvement_missing_counterpart():
    with pytest.raises(PairingError):
        relative_improvement([fake_record(version="local")])


# ---------------------------------------------------------------- run_suite


def test_run_suite_deterministic():
    cfg = small_config()
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert records_to_jsonl(a) == records_to_jsonl(b)


@pytest.mark.parametrize("full_test", [False, True], ids=["shard", "full-test"])
@pytest.mark.parametrize("split_mode", ["holdout", "kfold"])
# 150 holdout or 225 k-fold train rows: dim 60 solves the primal system, 400 the dual.
@pytest.mark.parametrize("dim", [60, 400], ids=["primal", "dual"])
@pytest.mark.parametrize("kind", ["rls", "centroid"])
def test_run_suite_centralized_equals_local_single_agent(kind, dim, split_mode, full_test):
    # One agent's shards are its whole train and test sets, shuffled.
    cfg = small_config(
        versions=(ExperimentVersion("centralized", classifier_kind=kind),
                  ExperimentVersion("local", classifier_kind=kind)),
        agent_counts=(1,),
        dim=dim,
        n_seeds=3,
        split_mode=split_mode,
        eval_on_full_test=full_test,
    )
    central, local = run_suite(cfg)
    assert central.version == "centralized"
    assert central.per_seed_mean == local.per_seed_mean
    assert central.mean_accuracy == local.mean_accuracy


@pytest.mark.parametrize("split_mode", ["holdout", "kfold"])
def test_run_suite_centroid_distributed_equals_centralized(split_mode):
    cfg = small_config(
        versions=(
            ExperimentVersion("centralized", classifier_kind="centroid"),
            ExperimentVersion("distributed", classifier_kind="centroid"),
        ),
        agent_counts=(3, 5),
        n_seeds=2,
        eval_on_full_test=True,
        split_mode=split_mode,
        k_folds=3,
    )
    central, *dist = run_suite(cfg)
    assert [r.n_agents for r in dist] == [3, 5]
    # Every agent's accuracy reproduces the centralized value bit for bit;
    # the record-level mean may differ by one ulp from averaging identical floats.
    for record in dist:
        assert record.per_agent_mean == (central.per_agent_mean[0],) * record.n_agents
        assert record.mean_accuracy == pytest.approx(central.mean_accuracy, abs=1e-14)


def test_run_suite_kfold_mode_runs():
    cfg = small_config(split_mode="kfold", k_folds=3, n_seeds=1,
                       versions=(ExperimentVersion("centralized"),))
    (rec,) = run_suite(cfg)
    assert rec.n_seeds == 1 and 0.0 <= rec.mean_accuracy <= 1.0


def test_run_suite_rejects_unknown_split_mode():
    with pytest.raises(InvalidParameterError, match="split mode 'loo'"):
        run_suite(small_config(split_mode="loo"))


@pytest.mark.parametrize("split_mode, n_folds", [("holdout", 1), ("kfold", 3)])
def test_run_suite_runs_each_realization_once(monkeypatch, split_mode, n_folds):
    # One run_versions call per (agent count, seed, fold), over a fully
    # connected network of that count, and one exchange per (distributed
    # cell, seed, fold).
    run_versions, exchange = hvnet.harness.run_versions, hvnet.network.exchange_and_aggregate
    passes, exchanged = [], []

    def counting_passes(shared, versions, network, eval_on_full_test):
        passes.append((shared.seed, network.n_agents))
        assert np.array_equal(network.omega, np.ones((network.n_agents,) * 2))
        return run_versions(shared, versions, network, eval_on_full_test)

    def counting_exchange(network, classifiers, compression, key_sets=None):
        exchanged.append((network.n_agents, compression))
        return exchange(network, classifiers, compression, key_sets)

    monkeypatch.setattr(hvnet.harness, "run_versions", counting_passes)
    monkeypatch.setattr(hvnet.network, "exchange_and_aggregate", counting_exchange)
    cfg = small_config(split_mode=split_mode, k_folds=3, agent_counts=(4, 2))
    run_suite(cfg)
    cells = [(v, n) for v in cfg.versions for n in ((1,) if v.kind == "centralized" else (4, 2))]
    assert len(passes) == len({n for _, n in cells}) * cfg.n_seeds * n_folds
    assert len(set(passes)) == len(passes)
    assert [n for _, n in passes[:3]] == [1, 2, 4]  # by agent count
    distributed = [(n, v.compression) for v, n in cells if v.kind == "distributed"]
    assert len(distributed) == 2
    assert Counter(exchanged) == {cell: cfg.n_seeds * n_folds for cell in distributed}


def test_run_suite_failure_identifies_seed():
    # At lambda = 0 a shard of one or two rows gives singular normal
    # equations: every seed fails at its first fit.
    cfg = small_config(
        dataset="synth:classes=3,features=4,samples=7,sep=2.0,seed=2",
        versions=(ExperimentVersion("local"),),
        agent_counts=(2,),
        lam=0.0,
        n_seeds=3,
        allow_off_grid=True,
    )
    with pytest.raises(SuiteError, match="seed index 0"):
        run_suite(cfg)


def test_run_suite_failure_names_the_failing_version():
    # At lambda = 0 only the RLS fits are singular.  The centroid version is
    # realized first at the same agent count and succeeds.
    cfg = small_config(
        dataset="synth:classes=3,features=4,samples=7,sep=2.0,seed=2",
        versions=(
            ExperimentVersion("local", classifier_kind="centroid"),
            ExperimentVersion("distributed"),
        ),
        agent_counts=(2,),
        lam=0.0,
        n_seeds=3,
        allow_off_grid=True,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(
            SuiteError, match="seed index 0 failed for version=distributed n_agents=2: .*singular"
        ):
            run_suite(cfg)


def recorded_passes(monkeypatch, config):
    """The suite's records and each _run_pass call's (arguments, results), in call order."""
    run_pass = hvnet.harness._run_pass
    calls = []

    def recording(*args):
        calls.append((args, run_pass(*args)))
        return calls[-1][1]

    monkeypatch.setattr(hvnet.harness, "_run_pass", recording)
    records = run_suite(config)
    monkeypatch.setattr(hvnet.harness, "_run_pass", run_pass)
    return records, calls


def assert_same_results(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.n_agents == y.n_agents
        assert x.payload_values_per_producer == y.payload_values_per_producer
        assert x.per_agent_accuracy.dtype == y.per_agent_accuracy.dtype
        assert x.per_agent_accuracy.tobytes() == y.per_agent_accuracy.tobytes()


@pytest.mark.parametrize("split_mode, folds", [("holdout", [None]), ("kfold", [0, 1, 2])])
def test_passes_computed_in_reverse_order_reduce_to_the_same_records(
    monkeypatch, split_mode, folds
):
    cfg = small_config(split_mode=split_mode, k_folds=3, agent_counts=(4, 2))
    records, calls = recorded_passes(monkeypatch, cfg)
    assert [args[2:] for args, _ in calls] == [(i, f) for i in range(cfg.n_seeds) for f in folds]
    # Each pass is a pure function of its arguments: recomputed last to first,
    # the passes are bit-equal to the suite's and reduce to the same records.
    backward = {args[2:]: hvnet.harness._run_pass(*args) for args, _ in reversed(calls)}
    for args, results in calls:
        assert_same_results(backward[args[2:]], results)
    monkeypatch.setattr(
        hvnet.harness, "_run_pass", lambda config, piece, i, fold: backward[(i, fold)]
    )
    assert records_to_jsonl(run_suite(cfg)) == records_to_jsonl(records)


def test_a_pass_and_its_results_pickle_and_round_trip(monkeypatch):
    _, calls = recorded_passes(monkeypatch, small_config(split_mode="kfold", k_folds=3))
    args, results = calls[-1]
    assert_same_results(pickle.loads(pickle.dumps(results)), results)
    run_pass, restored_args = pickle.loads(pickle.dumps((hvnet.harness._run_pass, args)))
    assert_same_results(run_pass(*restored_args), results)


def test_run_suite_payload_accounting():
    cfg = small_config(
        versions=(
            ExperimentVersion("distributed"),
            ExperimentVersion("distributed", compression=True),
        ),
        n_seeds=1,
    )
    raw, packed = run_suite(cfg)
    assert raw.payload_values_per_producer == 3 * cfg.dim
    assert packed.payload_values_per_producer == cfg.dim
    assert raw.payload_bytes_per_producer == 8 * 3 * cfg.dim


# ------------------------------------------------------------------ reports


def test_jsonl_and_csv_agree_after_parsing():
    records = run_suite(small_config(n_seeds=1))
    jsonl_rows = [json.loads(line) for line in records_to_jsonl(records).splitlines()]
    csv_rows = list(csv.DictReader(io.StringIO(records_to_csv(records))))
    assert len(jsonl_rows) == len(csv_rows)
    for jrow, crow in zip(jsonl_rows, csv_rows):
        for key, value in jrow.items():
            if isinstance(value, list):
                assert json.loads(crow[key]) == value
            elif isinstance(value, bool):
                assert crow[key] == ("true" if value else "false")
            elif isinstance(value, (int, float)):
                assert float(crow[key]) == pytest.approx(value, abs=0)
            else:
                assert crow[key] == str(value)


def test_report_ordering_is_deterministic():
    records = [
        fake_record(version="local", n_agents=50),
        fake_record(version="distributed", n_agents=10),
        fake_record(version="local", n_agents=10),
    ]
    lines = records_to_jsonl(records).splitlines()
    keys = [(json.loads(l)["version"], json.loads(l)["n_agents"]) for l in lines]
    assert keys == sorted(keys)


def test_table_layout():
    records = [
        fake_record(version="centralized", classifier="rls", n_agents=1, mean_accuracy=0.83),
        fake_record(version="local", classifier="rls", n_agents=10, mean_accuracy=0.74),
        fake_record(version="distributed", classifier="rls", n_agents=10, mean_accuracy=0.82),
        fake_record(version="centralized", classifier="centroid", n_agents=1, mean_accuracy=0.70),
        fake_record(version="local", classifier="centroid", n_agents=10, mean_accuracy=0.67),
        fake_record(version="distributed", classifier="centroid", n_agents=10, mean_accuracy=0.70),
    ]
    table = format_table(records)
    lines = table.splitlines()
    assert "N=1" in lines[0] and "N=10" in lines[0]
    row_names = [line.split("|")[0].strip() for line in lines[2:]]
    assert "rls/local" in row_names and "centroid/distributed" in row_names
    # the centralized accuracy fills the N=1 column of local and distributed rows
    rls_local = next(line for line in lines if line.startswith("rls/local"))
    assert "0.8300" in rls_local and "0.7400" in rls_local


def test_report_writes_file_and_round_trips(tmp_path):
    records = run_suite(small_config(n_seeds=1))
    out = report(records, fmt="jsonl", out=tmp_path / "records.jsonl")
    restored = records_from_jsonl(out)
    assert records_to_jsonl(restored) == records_to_jsonl(records)
    # An empty record file re-renders to the same, empty, bytes.
    empty = report([], fmt="jsonl", out=tmp_path / "empty.jsonl")
    assert empty.read_bytes() == b""
    assert records_to_jsonl(records_from_jsonl(empty)) == ""


def test_report_unwritable_path_leaves_nothing(tmp_path):
    records = [fake_record()]
    target = tmp_path / "missing_dir" / "out.jsonl"
    with pytest.raises(OSError):
        report(records, fmt="jsonl", out=target)
    assert not target.exists()


def test_report_rejects_unknown_format():
    with pytest.raises(InvalidParameterError):
        report([fake_record()], fmt="xml")


def test_scatter_pairs_and_warns_on_missing():
    records = [
        fake_record(dataset="a", version="local", mean_accuracy=0.6),
        fake_record(dataset="a", version="centralized", n_agents=1, mean_accuracy=0.8),
        fake_record(dataset="b", version="local", mean_accuracy=0.5),
    ]
    with pytest.warns(UserWarning, match="'b' missing"):
        text = scatter_export(records, "local", "centralized")
    lines = text.strip().splitlines()
    assert lines[0] == "dataset,classifier,n_agents,acc_a,acc_b"
    assert len(lines) == 2 and lines[1].startswith("a,rls,10,0.6,0.8")


def test_table_averages_each_cell_over_datasets():
    records = [
        fake_record(dataset="a", version="centralized", n_agents=1, mean_accuracy=0.8),
        fake_record(dataset="a", version="local", mean_accuracy=0.9),
        fake_record(dataset="b", version="centralized", n_agents=1, mean_accuracy=0.6),
        fake_record(dataset="b", version="local", mean_accuracy=0.1),
        fake_record(dataset="c", version="centralized", n_agents=1, mean_accuracy=0.4),
        fake_record(dataset="c", version="centralized", classifier="centroid", n_agents=1),
    ]
    rows = {
        line.split("|")[0].strip(): [cell.strip() for cell in line.split("|")[1:]]
        for line in format_table(records).splitlines()[2:]
    }
    assert set(rows) == {"rls/centralized", "rls/local", "centroid/centralized"}
    assert rows["rls/centralized"] == ["0.6000", ""]
    # Every centralized record fills N=1 of the local row, as in c8's table.
    assert rows["rls/local"] == ["0.6000", "0.5000"]


def test_scatter_centralized_against_itself_emits_each_dataset_once():
    records = [
        fake_record(dataset="a", version="centralized", n_agents=1, mean_accuracy=0.8),
        fake_record(dataset="b", version="centralized", n_agents=1, mean_accuracy=0.6),
    ]
    text = scatter_export(records, "centralized", "centralized")
    assert text.splitlines()[1:] == ["a,rls,1,0.8,0.8", "b,rls,1,0.6,0.6"]


def test_scatter_quotes_dataset_names_as_csv():
    name = 'a,"b"'
    records = [
        fake_record(dataset=name, version="local", mean_accuracy=0.5),
        fake_record(dataset=name, version="centralized", n_agents=1, mean_accuracy=0.75),
    ]
    rows = list(csv.reader(io.StringIO(scatter_export(records, "local", "centralized"))))
    assert rows == [["dataset", "classifier", "n_agents", "acc_a", "acc_b"],
                    [name, "rls", "10", "0.5", "0.75"]]


def test_scatter_rejects_unknown_label():
    with pytest.raises(InvalidParameterError, match="unknown version label 'locl'"):
        scatter_export([fake_record()], "locl", "centralized")


@pytest.mark.parametrize("render", [
    format_table,
    lambda records: scatter_export(records, "local", "distributed"),
    relative_improvement,
], ids=["table", "scatter", "relative_improvement"])
def test_reports_reject_two_records_in_one_cell(render):
    records = [
        fake_record(version="local", mean_accuracy=0.7),
        fake_record(version="local", mean_accuracy=0.6),
        fake_record(version="distributed", mean_accuracy=0.8),
    ]
    with pytest.raises(PairingError, match="two local records"):
        render(records)


# ---------------------------------------------- report output of an earlier commit

# Rendered from ``pinned_records`` by the reports before they shared one cell
# index, so the current reports are checked against that behaviour rather
# than against themselves.  The one deliberate difference: scatter lines are
# now ordered by agent count as a number (5, 10, 50), not as text.
PINNED_TABLE = (
    "                           | N=1      | N=5      | N=10     | N=50    ",
    "----------------------------------------------------------------------",
    "centroid/local             |          | 0.7633   | 0.7267   | 0.5467  ",
    "rls/centralized            | 0.7100   |          |          |         ",
    "rls/distributed            | 0.7100   | 0.6867   | 0.7567   | 0.7400  ",
    "rls/distributed+compressed | 0.7100   | 0.3533   | 0.5300   | 0.4900  ",
    "rls/local                  | 0.7100   | 0.5267   | 0.5967   | 0.5633  ",
)
PINNED_SCATTER = {  # lines after the header, then the warnings
    "centralized:local": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.71,0.5266666666666667",
            "synth-L3-K5-M600-s2,rls,10,0.71,0.5966666666666667",
            "synth-L3-K5-M600-s2,rls,50,0.71,0.5633333333333332",
        ),
        ["dataset 'synth-L3-K5-M600-s2' missing under 'centralized'; excluded"] * 3,
    ),
    "centralized:distributed": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.71,0.6866666666666668",
            "synth-L3-K5-M600-s2,rls,10,0.71,0.7566666666666667",
            "synth-L3-K5-M600-s2,rls,50,0.71,0.74",
        ),
        [],
    ),
    "centralized:distributed+compressed": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.71,0.35333333333333333",
            "synth-L3-K5-M600-s2,rls,10,0.71,0.5299999999999999",
            "synth-L3-K5-M600-s2,rls,50,0.71,0.49",
        ),
        [],
    ),
    "local:centralized": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.5266666666666667,0.71",
            "synth-L3-K5-M600-s2,rls,10,0.5966666666666667,0.71",
            "synth-L3-K5-M600-s2,rls,50,0.5633333333333332,0.71",
        ),
        ["dataset 'synth-L3-K5-M600-s2' missing under 'centralized'; excluded"] * 3,
    ),
    "local:distributed": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.5266666666666667,0.6866666666666668",
            "synth-L3-K5-M600-s2,rls,10,0.5966666666666667,0.7566666666666667",
            "synth-L3-K5-M600-s2,rls,50,0.5633333333333332,0.74",
        ),
        ["dataset 'synth-L3-K5-M600-s2' missing under 'distributed'; excluded"] * 3,
    ),
    "local:distributed+compressed": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.5266666666666667,0.35333333333333333",
            "synth-L3-K5-M600-s2,rls,10,0.5966666666666667,0.5299999999999999",
            "synth-L3-K5-M600-s2,rls,50,0.5633333333333332,0.49",
        ),
        ["dataset 'synth-L3-K5-M600-s2' missing under 'distributed+compressed'; excluded"] * 3,
    ),
    "distributed:centralized": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.6866666666666668,0.71",
            "synth-L3-K5-M600-s2,rls,10,0.7566666666666667,0.71",
            "synth-L3-K5-M600-s2,rls,50,0.74,0.71",
        ),
        [],
    ),
    "distributed:local": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.6866666666666668,0.5266666666666667",
            "synth-L3-K5-M600-s2,rls,10,0.7566666666666667,0.5966666666666667",
            "synth-L3-K5-M600-s2,rls,50,0.74,0.5633333333333332",
        ),
        [],
    ),
    "distributed:distributed+compressed": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.6866666666666668,0.35333333333333333",
            "synth-L3-K5-M600-s2,rls,10,0.7566666666666667,0.5299999999999999",
            "synth-L3-K5-M600-s2,rls,50,0.74,0.49",
        ),
        [],
    ),
    "distributed+compressed:centralized": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.35333333333333333,0.71",
            "synth-L3-K5-M600-s2,rls,10,0.5299999999999999,0.71",
            "synth-L3-K5-M600-s2,rls,50,0.49,0.71",
        ),
        [],
    ),
    "distributed+compressed:local": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.35333333333333333,0.5266666666666667",
            "synth-L3-K5-M600-s2,rls,10,0.5299999999999999,0.5966666666666667",
            "synth-L3-K5-M600-s2,rls,50,0.49,0.5633333333333332",
        ),
        [],
    ),
    "distributed+compressed:distributed": (
        (
            "synth-L3-K5-M600-s2,rls,5,0.35333333333333333,0.6866666666666668",
            "synth-L3-K5-M600-s2,rls,10,0.5299999999999999,0.7566666666666667",
            "synth-L3-K5-M600-s2,rls,50,0.49,0.74",
        ),
        [],
    ),
}


@pytest.fixture(scope="module")
def pinned_records():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some N=50 centroid shards miss a class
        return run_suite(ExperimentConfig(
            dataset="synth:classes=3,features=5,samples=600,sep=2.0,seed=3",
            versions=(
                ExperimentVersion("centralized"),
                ExperimentVersion("local"),
                ExperimentVersion("distributed"),
                ExperimentVersion("distributed", compression=True),
                ExperimentVersion("local", classifier_kind="centroid"),
            ),
            agent_counts=(5, 10, 50),
            dim=100,
            n_seeds=1,
            master_seed=11,
        ))


def test_table_matches_pinned_output(pinned_records):
    assert format_table(pinned_records) == "\n".join(PINNED_TABLE) + "\n"


@pytest.mark.parametrize("pair", sorted(PINNED_SCATTER))
def test_scatter_matches_pinned_output(pinned_records, pair):
    lines, expected_warnings = PINNED_SCATTER[pair]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        text = scatter_export(pinned_records, *pair.split(":"))
    assert text == "\n".join(("dataset,classifier,n_agents,acc_a,acc_b",) + lines) + "\n"
    assert [str(w.message) for w in caught] == expected_warnings


def test_record_dict_round_trip():
    rec = fake_record()
    assert ResultRecord.from_dict(rec.to_dict()) == rec


def test_jsonl_line_with_old_timing_field_loads_and_renders_without_it(tmp_path):
    # Older writers could add a wall_time_s key to each line; it is ignored.
    rec = fake_record()
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps({**rec.to_dict(), "wall_time_s": 1.5}) + "\n", encoding="utf-8")
    (loaded,) = records_from_jsonl(path)
    assert loaded == rec
    assert records_to_jsonl([loaded]) == records_to_jsonl([rec])
    assert "wall_time_s" not in records_to_jsonl([loaded])


@pytest.mark.parametrize("bad_line, message", [
    (b'{"dataset": "toy", "n_agents": ', "line 2: Expecting value"),
    (b"5", "line 2: a record must be a JSON object, got int"),
    (b'{"dataset": "toy"}', "line 2: record lacks field 'version'"),
    (b'{"dataset": "\xc3("}', "line 2: 'utf-8' codec can't decode"),
    (json.dumps({**fake_record().to_dict(), "mean_accuracy": float("nan")}).encode(),
     "line 2: record field 'mean_accuracy': expected a finite number, got nan"),
    (json.dumps({**fake_record().to_dict(), "per_seed_mean": [0.7, float("-inf")]}).encode(),
     "line 2: record field 'per_seed_mean': expected a finite number, got -inf"),
    (json.dumps({**fake_record().to_dict(), "mean_accuracy": "nan"}).encode(),
     "line 2: record field 'mean_accuracy': expected a finite number, got 'nan'"),
    (json.dumps({**fake_record().to_dict(), "mean_accuracy": 7.5, "n_agents": -3}).encode(),
     r"line 2: record field 'mean_accuracy': 7.5 is outside \[0, 1\]"),
], ids=["truncated", "number", "missing-field", "not-utf-8", "nan", "minus-infinity",
        "nan-string", "out-of-range"])
def test_jsonl_reader_names_the_file_and_line_of_a_bad_record(tmp_path, bad_line, message):
    path = tmp_path / "records.jsonl"
    path.write_bytes(records_to_jsonl([fake_record()]).encode() + bad_line + b"\n")
    with pytest.raises(ParseError, match=message) as excinfo:
        records_from_jsonl(path)
    assert str(excinfo.value).startswith(f"{path} line 2: ")


def test_record_from_dict_names_a_missing_field():
    d = fake_record().to_dict()
    del d["kappa"]
    with pytest.raises(ParseError, match="'kappa'"):
        ResultRecord.from_dict(d)
    with pytest.raises(ParseError, match="'n_agents'"):
        ResultRecord.from_dict({**fake_record().to_dict(), "n_agents": "ten"})


@pytest.mark.parametrize("name, value", [
    ("compressed", "false"), ("compressed", 1),
    ("n_agents", 1.7), ("n_agents", True), ("n_agents", "2.5"),
    ("lam", True), ("lam", None), ("lam", "x"),
    ("dataset", None), ("config_hash", 7),
    ("per_seed_mean", "0.7"), ("per_seed_mean", [0.7, False]),
    ("mean_accuracy", float("inf")), ("mean_accuracy", "nan"), ("std_accuracy", float("nan")),
    ("lam", "Infinity"), ("per_agent_mean", [0.7, float("nan")]),
    pytest.param("lam", 10**400, id="lam-10**400"),
])
def test_record_from_dict_rejects_wrong_json_types(name, value):
    with pytest.raises(ParseError, match=f"'{name}'"):
        ResultRecord.from_dict({**fake_record().to_dict(), name: value})


@pytest.mark.parametrize("name, value, reason", [
    ("mean_accuracy", 7.5, r"7.5 is outside \[0, 1\]"),
    ("mean_accuracy", -0.25, r"-0.25 is outside \[0, 1\]"),
    ("per_seed_mean", [0.7, 1.5], r"\(0.7, 1.5\) is outside \[0, 1\]"),
    ("per_agent_mean", [0.7] * 9 + [-0.1], r"-0.1\) is outside \[0, 1\]"),
    ("std_accuracy", -0.01, r"-0.01 is outside \[0, inf\]"),
    ("n_agents", -3, r"-3 is outside \[1, inf\]"),
    ("n_agents", 0, r"0 is outside \[1, inf\]"),
    ("dim", 0, r"0 is outside \[1, inf\]"),
    ("kappa", 0, r"0 is outside \[1, inf\]"),
    ("n_seeds", 0, r"0 is outside \[1, inf\]"),
    ("lam", -1.0, r"-1.0 is outside \[0, inf\]"),
    ("per_seed_mean", [0.7, 0.74, 0.72], "holds 3 values, but n_seeds is 2"),
    ("per_agent_mean", [0.71, 0.73], "holds 2 values, but n_agents is 10"),
    ("master_seed", 2**64, rf"{2**64} is outside \[0, {2**64 - 1}\]"),
    ("master_seed", -1, rf"-1 is outside \[0, {2**64 - 1}\]"),
    ("payload_values_per_producer", -1, r"-1 is outside \[0, inf\]"),
    ("payload_bytes_per_producer", 2401, "2401 is not 2400"),
    ("config_hash", "abc", "'abc' is not 64 lowercase hex digits"),
    ("config_hash", "0123456789ABCDEF" * 4, "is not 64 lowercase hex digits"),
    ("mean_accuracy", 0.7200000000000001, "0.7200000000000001 is not 0.72"),
    ("std_accuracy", 0.02, "0.02 is not 0.020000000000000018"),
], ids=["mean-above-one", "mean-below-zero", "per-seed-above-one", "per-agent-below-zero",
        "std-negative", "agents-negative", "agents-zero", "dim-zero", "kappa-zero", "seeds-zero",
        "lam-negative", "per-seed-length", "per-agent-length", "seed-2**64", "seed-negative",
        "payload-negative", "payload-bytes", "hash-short", "hash-uppercase", "mean-derived",
        "std-derived"])
def test_record_from_dict_rejects_values_that_no_suite_writes(name, value, reason):
    with pytest.raises(ParseError, match=rf"record field '{name}'.*{reason}"):
        ResultRecord.from_dict({**fake_record().to_dict(), name: value})


def test_record_from_dict_accepts_the_ends_of_each_range():
    rec = fake_record(
        n_agents=1, dim=1, kappa=1, n_seeds=1, lam=0.0, per_seed_mean=(1.0,),
        mean_accuracy=1.0, std_accuracy=0.0, per_agent_mean=(0.0,),
    )
    assert ResultRecord.from_dict(rec.to_dict()) == rec


@pytest.mark.parametrize("overrides, reason", [
    ({"version": "foo"}, r"version='foo'.*kind must be one of"),
    ({"classifier": "svm"}, r"classifier='svm'.*classifier_kind must be one of"),
    ({"version": "local", "compressed": True}, r"compressed=True.*distributed version only"),
])
def test_record_from_dict_rejects_invalid_version(overrides, reason):
    with pytest.raises(ParseError, match=reason):
        ResultRecord.from_dict({**fake_record().to_dict(), **overrides})


def test_record_csv_round_trip_keeps_header_order():
    rec = fake_record(version="distributed", compressed=True, lam=0.25)
    text = records_to_csv([rec])
    assert text.splitlines()[0].split(",") == [
        "dataset", "version", "classifier", "compressed", "n_agents", "dim", "lam",
        "kappa", "n_seeds", "master_seed", "per_seed_mean", "mean_accuracy",
        "std_accuracy", "per_agent_mean", "payload_values_per_producer",
        "payload_bytes_per_producer", "config_hash",
    ]
    (row,) = csv.DictReader(io.StringIO(text))
    # Lists are JSON cells and booleans are true/false; from_dict parses the rest.
    for key, value in row.items():
        if value.startswith("["):
            row[key] = json.loads(value)
        elif value in ("true", "false"):
            row[key] = value == "true"
    assert ResultRecord.from_dict(row) == rec
