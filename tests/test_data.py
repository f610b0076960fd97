"""CSV loading, normalization, splits, and synthetic blob generation."""

import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvnet.classifiers import evaluate, one_hot, train_rls
from hvnet.data import (
    Dataset,
    SplitSpec,
    load_csv,
    load_manifest,
    load_split_file,
    normalize,
    resolve_dataset,
    split,
    synth_blobs,
)
from hvnet.encoding import encode_batch, init_projection
from hvnet.errors import (
    DimensionError,
    InvalidDatasetError,
    InvalidParameterError,
    ParseError,
    StratificationWarning,
)
from hvnet.hdc import SeedSpec


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- load_csv


def test_load_csv_dense_reindexing(tmp_path):
    path = write(tmp_path, "toy.csv", "1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
    ds = load_csv(path, label_column=-1)
    assert ds.n_classes == 2
    np.testing.assert_array_equal(ds.labels, [1, 2, 1])
    np.testing.assert_array_equal(ds.samples, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_numeric_labels_sort_numerically(tmp_path):
    path = write(tmp_path, "num.csv", "0.5,10\n0.6,2\n0.7,10\n")
    ds = load_csv(path, label_column=1)
    np.testing.assert_array_equal(ds.labels, [2, 1, 2])


def test_load_csv_gives_numerically_equal_labels_one_class(tmp_path):
    # Compared as strings, 1, 1.0, 2 and 02 would be four classes.
    path = write(tmp_path, "equal.csv", "0.1,1\n0.2,1.0\n0.3,2\n0.4,02\n")
    ds = load_csv(path)
    assert ds.n_classes == 2
    np.testing.assert_array_equal(ds.labels, [1, 1, 2, 2])


@pytest.mark.parametrize("text, labels", [
    ("0.1,10\n0.2,nan\n0.3,9\n", [1, 3, 2]),
    ("0.1,inf\n0.2,1\n0.3,1.0\n", [3, 1, 2]),
    ("0.1,12345678901234567891\n0.2,12345678901234567890\n", [2, 1]),
], ids=["nan-is-a-string", "inf-is-a-string", "values-beyond-float-precision"])
def test_load_csv_label_classes_follow_the_numeric_rule(tmp_path, text, labels):
    # A non-finite label makes every label a string, in lexicographic order;
    # finite ones are compared exactly, not as floats.
    ds = load_csv(write(tmp_path, "labels.csv", text))
    np.testing.assert_array_equal(ds.labels, labels)


def test_load_csv_header_and_named_column(tmp_path):
    path = write(tmp_path, "hdr.csv", "f1,f2,target\n1,2,x\n3,4,y\n")
    ds = load_csv(path, label_column="target", header=True)
    assert ds.n_samples == 2  # header row excluded
    np.testing.assert_array_equal(ds.samples, [[1, 2], [3, 4]])


@pytest.mark.parametrize("label_column", [5, -4, True, 1.5])
def test_load_csv_rejects_label_column_outside_row(tmp_path, label_column):
    path = write(tmp_path, "three.csv", "1.0,2.0,a\n3.0,4.0,b\n")
    with pytest.raises(InvalidParameterError, match=r"three\.csv, which has 3 columns"):
        load_csv(path, label_column=label_column)


@pytest.mark.parametrize("label_column", [2, -1])
def test_load_csv_label_column_in_row_loads(tmp_path, label_column):
    path = write(tmp_path, "three.csv", "1.0,2.0,a\n3.0,4.0,b\n")
    ds = load_csv(path, label_column=label_column)
    np.testing.assert_array_equal(ds.labels, [1, 2])
    np.testing.assert_array_equal(ds.samples, [[1, 2], [3, 4]])


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_non_numeric_cell_reports_position(tmp_path):
    path = write(tmp_path, "bad.csv", "1.0,2.0,a\noops,4.0,b\n")
    with pytest.raises(ParseError, match="row 2, column 1"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_load_csv_non_finite_cell_reports_position(tmp_path, cell):
    path = write(tmp_path, "nonfinite.csv", f"1.0,2.0,a\n3.0,{cell},b\n")
    with pytest.raises(ParseError, match="row 2, column 2"):
        load_csv(path)


@pytest.mark.parametrize(
    "text, header, message",
    [
        # Without the check, a row lacking its label shifted every later label.
        ("1.0,2.0,a\n3.0,4.0,b\n5.0,6.0\n7.0,8.0,a\n", False, "row 3 has 2 cells, not 3"),
        ("0,1\n1,2,2\n", False, "row 2 has 3 cells, not 2"),
        ("x,y,label\n1.0,2.0,a\n3.0,b\n", True, "row 2 has 2 cells, not 3"),
        # A wider header would let a named label column index another column.
        ("x,y,label\n1,0.5\n2,0.7\n", True, "row 1 has 2 cells, not 3"),
    ],
    ids=["short", "long", "short-after-header", "narrower-than-header"],
)
def test_load_csv_rejects_a_row_of_another_length(tmp_path, text, header, message):
    path = write(tmp_path, "ragged.csv", text)
    with pytest.raises(ParseError, match=re.escape(f"{path}: {message}")):
        load_csv(path, header=header)


def test_load_csv_that_is_not_utf8_raises_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "utf16.csv"
    path.write_bytes("1.0,a\n2.0,b\n".encode("utf-16"))  # starts with ff fe
    with pytest.raises(ParseError, match=re.escape(f"{path} is not UTF-8 text")):
        load_csv(path)


def test_load_csv_single_class_rejected(tmp_path):
    path = write(tmp_path, "one.csv", "1,a\n2,a\n")
    with pytest.raises(InvalidDatasetError):
        load_csv(path)


@pytest.mark.parametrize("text, kwargs, error, message", [
    ("", {}, InvalidDatasetError, "is empty"),
    ("\n\n", {}, InvalidDatasetError, "is empty"),
    ("f1,target\n1,x\n2,y\n", {"label_column": "target"}, InvalidParameterError,
     "named label column requires header=True"),
    ("f1,target\n1,x\n2,y\n", {"label_column": "class", "header": True}, ParseError,
     "no column named 'class' in"),
    ("f1,target\n", {"header": True}, InvalidDatasetError, "has no data rows"),
], ids=["empty", "blank-lines", "named-column-without-header", "unknown-column", "header-only"])
def test_load_csv_rejects_a_file_without_the_rows_or_column_asked_for(
        tmp_path, text, kwargs, error, message):
    with pytest.raises(error, match=message):
        load_csv(write(tmp_path, "short.csv", text), **kwargs)


@pytest.mark.parametrize("labels, n_classes, error, message", [
    ([1, 2, 3], 2, InvalidParameterError, r"labels must lie in 1\.\.n_classes"),
    ([0, 1, 2], 2, InvalidParameterError, r"labels must lie in 1\.\.n_classes"),
    ([1, 2], 2, DimensionError, r"need 3 labels in a 1-D array, got \(2,\)"),
    ([[1], [2], [1]], 2, DimensionError, r"got \(3, 1\)"),
    ([1.0, 2.0, 1.0], 2, InvalidParameterError, "labels must be integers, got dtype float64"),
    ([1, 1, 1], 1, InvalidParameterError, "n_classes must be an integer >= 2, got 1"),
], ids=["above", "zero", "short", "column", "float", "one-class"])
def test_dataset_checks_its_labels_when_built(labels, n_classes, error, message):
    with pytest.raises(error, match=message):
        Dataset(samples=np.zeros((3, 2)), labels=np.asarray(labels), n_classes=n_classes)


def test_a_dataset_declaring_too_few_classes_is_rejected_before_any_split():
    # split groups rows by the classes 1..n_classes: declared with 2 classes,
    # the third class's 100 rows would silently leave every train and test set.
    ds = resolve_dataset("synth:classes=3,features=4,samples=300,sep=2.0,seed=1")
    with pytest.raises(InvalidParameterError, match=r"labels must lie in 1\.\.n_classes"):
        replace(ds, n_classes=2)


# --------------------------------------------------------------- normalize


def test_normalize_affine_map():
    ds = Dataset(samples=np.array([[2.0], [4.0], [6.0]]), labels=np.array([1, 2, 1]), n_classes=2)
    out = normalize(ds)
    np.testing.assert_allclose(out.samples[:, 0], [0.0, 0.5, 1.0])


def test_normalize_constant_column_is_half():
    ds = Dataset(samples=np.full((3, 1), 7.0), labels=np.array([1, 2, 1]), n_classes=2)
    np.testing.assert_allclose(normalize(ds).samples[:, 0], 0.5)


def test_normalize_clamps_rows_outside_training_range():
    samples = np.array([[2.0], [6.0], [8.0]])
    ds = Dataset(samples=samples, labels=np.array([1, 2, 1]), n_classes=2)
    out = normalize(ds, train_indices=[0, 1])  # range [2, 6]; row 2 is out of range
    np.testing.assert_allclose(out.samples[:, 0], [0.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_normalize_rejects_non_finite_sample(bad):
    samples = np.array([[2.0], [6.0], [bad]])
    ds = Dataset(samples=samples, labels=np.array([1, 2, 1]), n_classes=2)
    # Row 2 is outside the training rows, and is still rejected.
    with pytest.raises(InvalidDatasetError, match="non-finite"):
        normalize(ds, train_indices=[0, 1])


@pytest.mark.parametrize("rows, message", [
    ([], r"must be a non-empty 1-D array in 0\.\.2, got \[\]"),
    ([[0, 1]], r"must be a non-empty 1-D array in 0\.\.2, got \[\[0 1\]\]"),
    ([99], r"must be a non-empty 1-D array in 0\.\.2, got \[99\]"),
    ([0, -1], r"must be a non-empty 1-D array in 0\.\.2, got \[ 0 -1\]"),
    ([0.0, 1.0], "must be integers, got dtype float64"),
    ([True, False, True], "must be integers, got dtype bool"),
], ids=["empty", "2-D", "above", "negative", "float", "mask"])
def test_normalize_rejects_train_indices_that_are_not_row_indices(rows, message):
    # Unchecked, numpy raises an untyped IndexError or ValueError for the first three.
    ds = Dataset(samples=np.array([[2.0], [6.0], [8.0]]), labels=np.array([1, 2, 1]),
                 n_classes=2, name="toy")
    with pytest.raises(InvalidParameterError, match="train indices of dataset 'toy' " + message):
        normalize(ds, train_indices=rows)


def test_normalize_idempotent():
    rng = SeedSpec(0).rng()
    ds = Dataset(
        samples=rng.uniform(-5, 5, size=(20, 3)),
        labels=rng.integers(1, 3, size=20),
        n_classes=2,
    )
    once = normalize(ds, train_indices=range(10))
    twice = normalize(once, train_indices=range(10))
    np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)


# ------------------------------------------------------------------- split


def test_holdout_stratified_arithmetic():
    labels = np.array([1] * 50 + [2] * 50)
    ds = Dataset(samples=np.zeros((100, 1)), labels=labels, n_classes=2)
    train_idx, test_idx = split(ds, SplitSpec(fraction=0.5, seed=SeedSpec(1)))
    assert len(train_idx) == 50 and len(test_idx) == 50
    for side in (train_idx, test_idx):
        counts = np.bincount(labels[side], minlength=3)[1:]
        assert counts.tolist() == [25, 25]
    assert len(np.intersect1d(train_idx, test_idx)) == 0


def test_kfold_disjoint_and_covering():
    labels = np.array([1, 2] * 30)
    ds = Dataset(samples=np.zeros((60, 1)), labels=labels, n_classes=2)
    folds = split(ds, SplitSpec(mode="kfold", k=4, seed=SeedSpec(2)))
    assert len(folds) == 4
    merged = np.concatenate(folds)
    assert len(merged) == 60 and len(np.unique(merged)) == 60


def _round_robin_folds(ds, spec):
    """k folds dealt one row at a time, the form ``split`` had before it took slices."""
    counts = np.bincount(ds.labels, minlength=ds.n_classes + 1)[1:]
    stratified = spec.stratified and bool(np.all(counts >= 2))
    rng = spec.seed.child("split").rng()
    groups = (
        [np.flatnonzero(ds.labels == i) for i in range(1, ds.n_classes + 1)]
        if stratified else [np.arange(ds.n_samples)]
    )
    folds = [[] for _ in range(spec.k)]
    for idx in (idx[rng.permutation(idx.shape[0])] for idx in groups):
        if stratified:
            for pos, sample in enumerate(idx):
                folds[pos % spec.k].append(sample)
        else:
            for f, part in enumerate(np.array_split(idx, spec.k)):
                folds[f].extend(part.tolist())
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


@given(
    n_classes=st.integers(2, 4),
    labels=st.lists(st.integers(1, 4), min_size=1, max_size=40),
    k=st.integers(2, 6),
    stratified=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
)
@settings(deadline=None, max_examples=200, derandomize=True)
def test_kfold_slices_match_the_round_robin(n_classes, labels, k, stratified, seed):
    labels = np.minimum(labels, n_classes)
    ds = Dataset(samples=np.zeros((labels.size, 1)), labels=labels, n_classes=n_classes)
    spec = SplitSpec(mode="kfold", k=k, stratified=stratified, seed=SeedSpec(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StratificationWarning)
        folds = split(ds, spec)
    expected = _round_robin_folds(ds, spec)
    assert len(folds) == k
    for fold, reference in zip(folds, expected):
        assert fold.dtype == reference.dtype
        np.testing.assert_array_equal(fold, reference)


def test_split_deterministic():
    ds = synth_blobs(2, 3, 50, 2.0, SeedSpec(3))
    a = split(ds, SplitSpec(seed=SeedSpec(4)))
    b = split(ds, SplitSpec(seed=SeedSpec(4)))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_split_downgrades_when_class_too_small():
    labels = np.array([1, 1, 1, 1, 1, 2])  # class 2 has one sample
    ds = Dataset(samples=np.zeros((6, 1)), labels=labels, n_classes=2)
    with pytest.warns(StratificationWarning):
        train_idx, test_idx = split(ds, SplitSpec(fraction=0.5, seed=SeedSpec(5)))
    assert len(train_idx) + len(test_idx) == 6


def test_split_spec_validation():
    with pytest.raises(InvalidParameterError):
        SplitSpec(fraction=1.0)
    with pytest.raises(InvalidParameterError):
        SplitSpec(mode="kfold", k=1)
    with pytest.raises(InvalidParameterError, match="k must be an integer >= 2, got 2.0"):
        SplitSpec(mode="kfold", k=2.0)
    with pytest.raises(InvalidParameterError):
        SplitSpec(mode="bootstrap")
    for flag in ("no", 1):
        with pytest.raises(InvalidParameterError, match=f"stratified must be a bool, got {flag!r}"):
            SplitSpec(stratified=flag)
    assert type(SplitSpec(stratified=np.False_).stratified) is bool


# --------------------------------------------------------------- synth_blobs


def test_synth_blobs_deterministic_and_balanced():
    a = synth_blobs(3, 5, 100, 2.0, SeedSpec(7))
    b = synth_blobs(3, 5, 100, 2.0, SeedSpec(7))
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.labels, b.labels)
    counts = np.bincount(a.labels, minlength=4)[1:]
    assert counts.max() - counts.min() <= 1
    assert a.samples.min() >= 0.0 and a.samples.max() <= 1.0


def _centralized_accuracy(ds, dim=100, kappa=7, lam=1.0):
    train_idx, test_idx = split(ds, SplitSpec(seed=SeedSpec(8)))
    proj = init_projection(ds.n_features, dim, SeedSpec(9).child("projection"))
    H_train = encode_batch(ds.samples[train_idx], proj, kappa)
    H_test = encode_batch(ds.samples[test_idx], proj, kappa)
    model = train_rls(H_train, one_hot(ds.labels[train_idx], ds.n_classes), lam)
    return evaluate(model, H_test, ds.labels[test_idx])


def test_synth_blobs_zero_separation_is_chance():
    ds = synth_blobs(3, 10, 1200, 0.0, SeedSpec(10))
    assert abs(_centralized_accuracy(ds) - 1 / 3) < 0.08


def test_synth_blobs_generous_separation_is_easy():
    ds = synth_blobs(3, 10, 3000, 10.0, SeedSpec(11))
    assert _centralized_accuracy(ds) > 0.95


class _NoDraws:
    def rng(self):
        raise AssertionError("a sample was drawn")


@pytest.mark.parametrize("n_classes, separation, message", [
    (0, 1.0, "n_classes must be an integer >= 2, got 0"),
    (2, -1.0, "separation must be a finite number >= 0, got -1.0"),
    (2, float("nan"), "separation must be a finite number >= 0, got nan"),
    (2, float("inf"), "separation must be a finite number >= 0, got inf"),
    (2, True, "separation must be a finite number >= 0, got True"),
    (2, "3", "separation must be a finite number >= 0, got '3'"),
], ids=["no-class", "negative-sep", "nan-sep", "inf-sep", "bool-sep", "string-sep"])
def test_synth_blobs_validation(n_classes, separation, message):
    # _NoDraws fails the test if a sample is drawn before the check.
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        synth_blobs(n_classes, 2, 10, separation, _NoDraws())


# ----------------------------------------------------- manifest / resolution


def test_resolve_synth_spec():
    ds = resolve_dataset("synth:classes=2,features=4,samples=60,sep=1.5,seed=5")
    assert ds.n_classes == 2 and ds.n_features == 4 and ds.n_samples == 60


def test_resolve_synth_rejects_unknown_key():
    with pytest.raises(InvalidParameterError):
        resolve_dataset("synth:blobs=3")


@pytest.mark.parametrize("spec", [
    "synth:classes=abc", "synth:samples=2.5", "synth:features", "synth:sep=far",
])
def test_resolve_synth_rejects_bad_values(spec):
    item = spec.partition(":")[2]
    with pytest.raises(InvalidParameterError, match=re.escape(repr(item))):
        resolve_dataset(spec)


@pytest.mark.parametrize("spec, message", [
    ("synth:classes=1", "n_classes must be an integer >= 2, got 1"),
    ("synth:seed=-1", "master_seed"),
    ("synth:seed=18446744073709551616", "master_seed"),
    ("synth:sep=nan", "separation must be a finite number >= 0, got nan"),
    ("synth:sep=inf", "separation must be a finite number >= 0, got inf"),
    ("synth:sep=1e400", "separation must be a finite number >= 0, got inf"),
    ("synth:sep=-0.5", "separation must be a finite number >= 0, got -0.5"),
])
def test_resolve_synth_rejects_values_outside_their_domains(spec, message):
    with pytest.raises(InvalidParameterError, match=message):
        resolve_dataset(spec)


def test_manifest_round_trip(tmp_path):
    csv_path = write(tmp_path, "toy.csv", "1.0,a\n2.0,b\n3.0,a\n")
    manifest_path = write(
        tmp_path, "manifest.json",
        '{"toy": {"path": "toy.csv", "label_column": -1, "header": false}}',
    )
    entries = load_manifest(manifest_path)
    assert entries["toy"]["path"] == str(csv_path.resolve())
    ds = resolve_dataset("toy", entries)
    assert ds.name == "toy" and ds.n_samples == 3


@pytest.mark.parametrize("text", [
    '{"d": 5}', '{"d": "toy.csv"}', '{"d": {"label_column": 0}}', '{"d": {"path": 5}}',
], ids=["number", "string", "no-path", "numeric-path"])
def test_manifest_rejects_an_entry_that_is_not_an_object_with_a_path(tmp_path, text):
    path = write(tmp_path, "manifest.json", text)
    with pytest.raises(InvalidParameterError, match="entry 'd' must be an object") as excinfo:
        load_manifest(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("text", ["[]", '"toy.csv"', "5"], ids=["list", "string", "number"])
def test_manifest_that_is_not_an_object_is_rejected(tmp_path, text):
    path = write(tmp_path, "manifest.json", text)
    message = re.escape(f"manifest {path} must be a JSON object")
    with pytest.raises(InvalidParameterError, match=message):
        load_manifest(path)


@pytest.mark.parametrize("entry, shown", [
    ({"header": "false"}, "'header': 'false'"),
    ({"header": 1}, "'header': 1"),
    ({"split_file": 5}, "'split_file': 5"),
    ({"label_column": 1.5}, "'label_column': 1.5"),
    ({"label_column": True}, "'label_column': True"),
    ({"label_colum": 0}, "'label_colum': 0"),
], ids=["header-string", "header-number", "split-file-number", "label-float", "label-bool",
        "misspelt-key"])
def test_manifest_rejects_an_unknown_key_or_a_value_of_the_wrong_type(tmp_path, entry, shown):
    path = write(tmp_path, "manifest.json", json.dumps({"d": {"path": "toy.csv", **entry}}))
    with pytest.raises(InvalidParameterError, match=re.escape(
            f"manifest {path} entry 'd' has {shown}; an entry's keys and types are "
            "path: str, label_column: int or str, header: bool, split_file: str")):
        load_manifest(path)


def test_manifest_header_flag_reaches_the_csv_reader(tmp_path):
    write(tmp_path, "toy.csv", "".join(f"{i}.0,{'ab'[i % 2]}\n" for i in range(6)))
    for header, rows in ((False, 6), (True, 5)):
        write(tmp_path, "manifest.json", json.dumps({"toy": {"path": "toy.csv", "header": header}}))
        entries = load_manifest(tmp_path / "manifest.json")
        assert resolve_dataset("toy", entries).n_samples == rows


@pytest.mark.parametrize("loader", [
    load_manifest, lambda path: load_split_file(path, 5),
], ids=["manifest", "split-file"])
def test_json_inputs_that_do_not_parse_raise_a_parse_error_naming_the_file(tmp_path, loader):
    path = write(tmp_path, "input.json", '{"toy": {"path": "toy.csv"')
    with pytest.raises(ParseError, match="is not valid JSON") as excinfo:
        loader(path)
    assert str(path) in str(excinfo.value)


def test_resolve_unknown_dataset():
    with pytest.raises(InvalidParameterError):
        resolve_dataset("mystery", {})


def test_split_file_round_trip(tmp_path):
    write(tmp_path, "splits.json", '{"train": [0, 2, 4], "test": [1, 3]}')
    train_idx, test_idx = load_split_file(tmp_path / "splits.json", 5)
    np.testing.assert_array_equal(train_idx, [0, 2, 4])
    np.testing.assert_array_equal(test_idx, [1, 3])
    with pytest.raises(InvalidParameterError):
        load_split_file(tmp_path / "splits.json", 4)  # index 4 out of range
    write(tmp_path, "overlap.json", '{"train": [0, 1], "test": [1, 2]}')
    with pytest.raises(InvalidParameterError):
        load_split_file(tmp_path / "overlap.json", 5)


@pytest.mark.parametrize("payload, message", [
    ({"train": [], "test": [1, 2]}, "non-empty flat list of integer 'train'"),
    ({"train": [0, 1], "test": []}, "non-empty flat list of integer 'test'"),
    ({"train": [0, 1]}, "non-empty flat list of integer 'test'"),
    ({"train": [[0, 1], [2, 3]], "test": [4]}, "non-empty flat list of integer 'train'"),
    ({"train": [0, 1.5], "test": [2]}, "non-empty flat list of integer 'train'"),
    ({"train": [0, True], "test": [2]}, "non-empty flat list of integer 'train'"),
    ({"train": [0, 2, 0], "test": [1]}, "repeats an index in 'train'"),
    ({"train": [0, 1], "test": [3, 3]}, "repeats an index in 'test'"),
])
def test_split_file_rejects_malformed_index_lists(tmp_path, payload, message):
    path = write(tmp_path, "splits.json", json.dumps(payload))
    with pytest.raises(InvalidParameterError, match=message) as excinfo:
        load_split_file(path, 5)
    assert str(path) in str(excinfo.value)


def test_manifest_split_file_overrides_protocol(tmp_path):
    from hvnet.harness import run_suite
    from hvnet.records import ExperimentConfig, ExperimentVersion

    # Training rows map feature 0 -> class 1 and feature 1 -> class 2; the
    # predefined test rows invert that mapping, so accuracy is exactly zero
    # if and only if the split file governed the split.
    lines = ["0.0,1"] * 15 + ["1.0,2"] * 15 + ["0.0,2"] * 5 + ["1.0,1"] * 5
    write(tmp_path, "toy.csv", "\n".join(lines) + "\n")
    write(tmp_path, "splits.json",
          json.dumps({"train": list(range(30)), "test": list(range(30, 40))}))
    write(
        tmp_path, "manifest.json",
        json.dumps({"toy": {"path": "toy.csv", "label_column": -1,
                            "split_file": "splits.json"}}),
    )
    cfg = ExperimentConfig(
        dataset="toy",
        manifest=str(tmp_path / "manifest.json"),
        versions=(ExperimentVersion("centralized"),),
        dim=20, lam=1.0, kappa=3, n_seeds=1, master_seed=0, allow_off_grid=True,
    )
    (rec,) = run_suite(cfg)
    assert rec.mean_accuracy == 0.0
