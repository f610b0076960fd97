"""Dataset loading, normalization, splitting, and synthetic data generation."""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    InvalidDatasetError,
    InvalidParameterError,
    ParseError,
    StratificationWarning,
)
from .hdc import SeedSpec, check_count, check_flag, check_labels, check_real, check_rows

__all__ = [
    "Dataset",
    "SplitSpec",
    "load_csv",
    "load_manifest",
    "load_split_file",
    "normalize",
    "resolve_dataset",
    "split",
    "synth_blobs",
]


@dataclass(frozen=True)
class Dataset:
    """Tabular data of n_classes >= 2 classes, one label per sample that passes ``check_labels``.

    The samples are a 2-D array of real numbers (``check_real``) with one or more
    columns; both are held as the arrays their checks return.
    """

    samples: np.ndarray  # (n_samples, n_features) float64
    labels: np.ndarray  # (n_samples,) int64 in 1..n_classes
    n_classes: int
    name: str = "dataset"

    def __post_init__(self):
        check_count("n_classes", self.n_classes, lo=2)
        samples = check_real("samples", self.samples)
        if samples.ndim != 2 or samples.shape[1] < 1:
            raise DimensionError(f"samples must be a 2-D array of one or more columns, "
                                 f"got shape {samples.shape}")
        labels = check_labels(self.labels, self.n_classes, samples.shape[0])
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_features(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    mode: str = "holdout"  # holdout | kfold
    fraction: float = 0.5  # train share, holdout mode
    k: int = 4
    stratified: bool = True
    seed: SeedSpec = SeedSpec(0)

    def __post_init__(self):
        if self.mode not in ("holdout", "kfold"):
            raise InvalidParameterError(f"unknown split mode {self.mode!r}")
        # Both settings are checked whatever the mode, since a config hashes both.
        if not (isinstance(self.fraction, numbers.Real) and 0.0 < self.fraction < 1.0):
            raise InvalidParameterError(f"holdout fraction must be in (0, 1), got {self.fraction}")
        check_count("k", self.k, lo=2)
        object.__setattr__(self, "stratified", check_flag("stratified", self.stratified))


def load_csv(path, label_column=-1, header: bool = False, name: str | None = None) -> Dataset:
    """Load a numeric-feature CSV; the label column may be categorical.

    Labels are densely re-indexed to 1..n_classes: by value in numeric order
    when every raw label parses as a finite number (``1``, ``1.0`` and ``01``
    are one class), else by string in lexicographic order.  The file must be
    UTF-8, and every data row as many cells long as the file's first row.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise InvalidDatasetError(f"{path} is empty")
    columns = rows[0]
    label_idx = label_column
    if isinstance(label_column, str):
        if not header:
            raise InvalidParameterError("named label column requires header=True")
        try:
            label_idx = columns.index(label_column)
        except ValueError:
            raise ParseError(f"no column named {label_column!r} in {path}") from None
    if header:
        rows = rows[1:]
    if not rows:
        raise InvalidDatasetError(f"{path} has no data rows")
    n_cols = len(columns)
    # type() rather than isinstance(): a bool is not a column index.
    if type(label_idx) is not int or not -n_cols <= label_idx < n_cols:
        raise InvalidParameterError(
            f"label_column {label_column!r} is not a column of {path}, which has {n_cols} columns"
        )
    label_idx %= n_cols

    features = []
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != len(columns):
            raise ParseError(f"{path}: row {r + 1} has {len(row)} cells, not {len(columns)}")
        vals = []
        for c, cell in enumerate(row):
            if c == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric feature cell {cell!r} at row {r + 1}, column {c + 1}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: non-finite feature cell {cell!r} at row {r + 1}, column {c + 1}"
                )
            vals.append(value)
        features.append(vals)

    try:
        # Decimal, not float: equal values are equal, and distinct ones stay distinct.
        parsed = [Decimal(v) for v in raw_labels]
        values = parsed if all(v.is_finite() for v in parsed) else raw_labels
    except InvalidOperation:
        values = raw_labels
    ordered = sorted(set(values))
    if len(ordered) < 2:
        raise InvalidDatasetError(f"{path} contains a single class; need at least two")
    index = {v: i + 1 for i, v in enumerate(ordered)}
    return Dataset(
        samples=np.asarray(features, dtype=np.float64),
        labels=np.asarray([index[v] for v in values], dtype=np.int64),
        n_classes=len(ordered),
        name=name or path.stem,
    )


def normalize(ds: Dataset, train_indices=None) -> Dataset:
    """Min-max scale every feature to [0, 1] using statistics from the training rows.

    Rows outside the training range (possible for test data) are clamped.
    Constant features map to 0.5.  Idempotent: normalizing twice with the
    same training rows changes nothing.  Non-finite samples are rejected; the
    train indices are checked by ``check_rows``.
    """
    if not np.all(np.isfinite(ds.samples)):
        raise InvalidDatasetError(f"dataset {ds.name!r} holds a non-finite (NaN or inf) sample")
    rows = slice(None) if train_indices is None else check_rows(
        f"train indices of dataset {ds.name!r}", [train_indices], ds.n_samples)[0]
    mins = ds.samples[rows].min(axis=0)
    maxs = ds.samples[rows].max(axis=0)
    span = maxs - mins
    constant = span == 0.0
    safe_span = np.where(constant, 1.0, span)
    scaled = np.clip((ds.samples - mins) / safe_span, 0.0, 1.0)
    scaled[:, constant] = 0.5
    return replace(ds, samples=scaled)


def _stratify_ok(labels: np.ndarray, n_classes: int) -> bool:
    counts = np.bincount(labels, minlength=n_classes + 1)[1:]
    return bool(np.all(counts >= 2))


def split(ds: Dataset, spec: SplitSpec):
    """Seeded train/test split (holdout) or list of k disjoint covering folds."""
    stratified = spec.stratified
    if stratified and not _stratify_ok(ds.labels, ds.n_classes):
        warnings.warn(
            "a class has fewer than 2 samples; falling back to an unstratified split",
            StratificationWarning,
            stacklevel=2,
        )
        stratified = False
    rng = spec.seed.child("split").rng()
    # Each class is shuffled in turn; the unstratified split is one group of all rows.
    groups = (
        [np.flatnonzero(ds.labels == i) for i in range(1, ds.n_classes + 1)]
        if stratified else [np.arange(ds.n_samples)]
    )
    groups = [idx[rng.permutation(idx.shape[0])] for idx in groups]

    if spec.mode == "holdout":
        train_parts, test_parts = [], []
        for idx in groups:
            n_train = int(np.floor(spec.fraction * idx.shape[0] + 0.5))
            n_train = min(max(n_train, 1), idx.shape[0] - 1)
            train_parts.append(idx[:n_train])
            test_parts.append(idx[n_train:])
        return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))

    # Stratified, each class deals its shuffled rows to the folds in turn.
    if stratified:
        return [np.sort(np.concatenate([idx[f::spec.k] for idx in groups])) for f in range(spec.k)]
    return [np.sort(part) for part in np.array_split(groups[0], spec.k)]


def synth_blobs(
    n_classes: int, n_features: int, n_samples: int, separation: float, seed: SeedSpec
) -> Dataset:
    """Balanced Gaussian blobs with class means ``separation`` away from the origin.

    Means sit on a seeded random simplex (unit directions scaled by the
    separation), noise is unit isotropic, and the result is min-max
    normalized to [0, 1].  separation=0 makes the classes indistinguishable.
    """
    check_count("n_classes", n_classes, lo=2)  # one class cannot be classified
    check_count("n_features", n_features)
    check_count("n_samples", n_samples, lo=n_classes)  # every class gets a sample
    is_real = isinstance(separation, numbers.Real) and not isinstance(separation, bool)
    if not (is_real and 0 <= separation < math.inf):
        raise InvalidParameterError(f"separation must be a finite number >= 0, got {separation!r}")
    rng = seed.rng()
    dirs = rng.standard_normal((n_classes, n_features))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    base, rem = divmod(n_samples, n_classes)
    labels = np.concatenate(
        [np.full(base + (1 if i < rem else 0), i + 1, dtype=np.int64) for i in range(n_classes)]
    )
    samples = means[labels - 1] + rng.standard_normal((n_samples, n_features))
    order = rng.permutation(n_samples)
    ds = Dataset(
        samples=samples[order],
        labels=labels[order],
        n_classes=n_classes,
        name=f"synth-L{n_classes}-K{n_features}-M{n_samples}-s{separation:g}",
    )
    return normalize(ds)


# Manifest entry key -> the types its JSON value may have; "path" is required.
_MANIFEST_KEYS = {"path": (str,), "label_column": (int, str), "header": (bool,),
                  "split_file": (str,)}


def load_manifest(path) -> dict:
    """Read a dataset manifest: a JSON object mapping name -> {path, label_column, header}.

    An entry may also name a ``split_file`` (JSON with ``train`` and ``test``
    index lists) to replace the seeded split protocol for that dataset.  An
    entry holds no other key, and each value is of its key's type.
    """
    path = Path(path)
    entries = _load_json(path, "manifest")
    if not isinstance(entries, dict):
        raise InvalidParameterError(f"manifest {path} must be a JSON object")
    for name, entry in entries.items():
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise InvalidParameterError(
                f"manifest {path} entry {name!r} must be an object with a string path"
            )
        for key, value in entry.items():
            if type(value) not in _MANIFEST_KEYS.get(key, ()):  # a bool is no label column
                schema = ", ".join(f"{k}: {' or '.join(t.__name__ for t in ts)}"
                                   for k, ts in _MANIFEST_KEYS.items())
                raise InvalidParameterError(f"manifest {path} entry {name!r} has {key!r}: "
                                            f"{value!r}; an entry's keys and types are {schema}")
        entry["path"] = str((path.parent / entry["path"]).resolve())
        if "split_file" in entry:
            entry["split_file"] = str((path.parent / entry["split_file"]).resolve())
    return entries


def _load_json(path, what: str):
    """Parse one JSON file; malformed JSON or text is a ParseError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_split_file(path, n_samples: int):
    """Read predefined train/test indices from JSON: {"train": [...], "test": [...]}.

    Each must be a list of distinct row indices that passes ``check_rows``,
    and no index may be in both lists.
    """
    payload = _load_json(path, "split file")
    lists = [payload.get(name) if isinstance(payload, dict) else None for name in ("train", "test")]
    if not all(isinstance(values, list) for values in lists):
        raise InvalidParameterError(f"split file {path} must hold a 'train' and a 'test' list")
    train, test = check_rows(f"'train' and 'test' indices of split file {path}", lists, n_samples)
    for name, rows in (("train", train), ("test", test)):
        if np.unique(rows).size != rows.size:
            raise InvalidParameterError(f"split file {path} repeats an index in {name!r}")
    if np.intersect1d(train, test).size:
        raise InvalidParameterError(f"split file {path} has overlapping train/test indices")
    return train, test


_SYNTH_KEYS = {"classes": 3, "features": 10, "samples": 3000, "sep": 3.0, "seed": 0}


def resolve_dataset(spec: str, manifest: dict | None = None) -> Dataset:
    """Turn a dataset reference into a Dataset.

    ``synth:classes=3,features=10,samples=3000,sep=3.0,seed=0`` builds a
    seeded blob dataset; any other name is looked up in the manifest.
    """
    if spec.startswith("synth:") or spec == "synth":
        params = dict(_SYNTH_KEYS)
        body = spec.partition(":")[2]
        for item in filter(None, body.split(",")):
            key, _, value = item.partition("=")
            key = key.strip()
            try:
                params[key] = type(params[key])(value)
            except (KeyError, ValueError):
                raise InvalidParameterError(
                    f"bad synth parameter {item!r}: expected KEY=VALUE with KEY one of "
                    f"{sorted(params)} and VALUE an integer (a number for sep)"
                ) from None
        return synth_blobs(
            params["classes"],
            params["features"],
            params["samples"],
            params["sep"],
            SeedSpec(params["seed"]).child("synth"),
        )
    if manifest is None or spec not in manifest:
        raise InvalidParameterError(
            f"dataset {spec!r} not found; supply a manifest entry or a synth: spec"
        )
    entry = manifest[spec]
    return load_csv(
        entry["path"],
        label_column=entry.get("label_column", -1),
        header=entry.get("header", False),
        name=spec,
    )
