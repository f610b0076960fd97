"""Suite settings and result records: what a suite runs, what it produced, and its reports.

Reading, checking and rendering records needs numpy alone: this module
imports neither scipy nor the protocol modules, so ``hvnet report`` and
``hvnet --help`` load neither.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import partial, reduce
from pathlib import Path

import numpy as np

from .data import SplitSpec
from .errors import InvalidParameterError, PairingError, ParseError, UndefinedCorrelationError
from .hdc import SeedSpec, check_count, check_lambda, check_seed

__all__ = [
    "CLASSIFIER_KINDS",
    "DEFAULT_DIM_GRID",
    "DEFAULT_KAPPA_GRID",
    "DEFAULT_LAMBDA_GRID",
    "ExperimentConfig",
    "ExperimentVersion",
    "GridSpec",
    "REPORT_FORMATS",
    "ResultRecord",
    "VERSION_KINDS",
    "format_table",
    "pearson",
    "records_from_jsonl",
    "records_to_csv",
    "records_to_jsonl",
    "relative_improvement",
    "report",
    "scatter_export",
]

VERSION_KINDS = ("centralized", "local", "distributed")
CLASSIFIER_KINDS = ("rls", "centroid")

DEFAULT_DIM_GRID = tuple(range(50, 1501, 50))  # 30 values
DEFAULT_LAMBDA_GRID = tuple(float(2.0**e) for e in range(-10, 6))  # 16 values
DEFAULT_KAPPA_GRID = (1, 3, 7, 15)

# Config fields a record carries, and the split settings only its config_hash carries.
_RECORD_CONFIG_FIELDS = ("dim", "lam", "kappa", "n_seeds", "master_seed")
_SPLIT_FIELDS = ("split_mode", "train_fraction", "k_folds", "eval_on_full_test")

_GRID_RANGES = {
    "dim": (DEFAULT_DIM_GRID[0], DEFAULT_DIM_GRID[-1]),
    "lam": (DEFAULT_LAMBDA_GRID[0], DEFAULT_LAMBDA_GRID[-1]),
    "kappa": (DEFAULT_KAPPA_GRID[0], DEFAULT_KAPPA_GRID[-1]),
}


def _check_entries(name: str, values, check=None) -> None:
    """Raise unless ``values`` holds an entry, repeats none, and each passes ``check``."""
    if not values:
        raise InvalidParameterError(f"{name} must hold at least one entry")
    for i, value in enumerate(values):
        if check is not None:
            check(value)
        if value in values[:i]:
            raise InvalidParameterError(f"{name} repeats {value!r}")


def _python_number(value):
    """A numpy scalar as the Python number it holds; anything else as it is."""
    return value.item() if isinstance(value, np.generic) else value


@dataclass(frozen=True)
class ExperimentVersion:
    kind: str  # centralized | local | distributed
    compression: bool = False
    classifier_kind: str = "rls"

    def __post_init__(self):
        if self.kind not in VERSION_KINDS:
            raise InvalidParameterError(f"kind must be one of {VERSION_KINDS}")
        if self.compression and self.kind != "distributed":
            raise InvalidParameterError("compression applies to the distributed version only")
        if self.classifier_kind not in CLASSIFIER_KINDS:
            raise InvalidParameterError(f"classifier_kind must be one of {CLASSIFIER_KINDS}")

    @property
    def label(self) -> str:
        """The version's name in reports: its kind, or ``distributed+compressed``."""
        return "distributed+compressed" if self.compression else self.kind


_VERSION_LABELS = VERSION_KINDS + (ExperimentVersion("distributed", True).label,)


@dataclass(frozen=True)
class GridSpec:
    """The (dim, lambda, kappa) axes of a grid search and its holdout's train share.

    Checked at construction, before any data is read: each axis holds a value
    and repeats none, dims and kappas are integers >= 1, lambdas finite
    numbers >= 0, and the share lies in (0, 1).
    """

    dim_values: tuple[int, ...] = DEFAULT_DIM_GRID
    lambda_values: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    kappa_values: tuple[int, ...] = DEFAULT_KAPPA_GRID
    train_fraction: float = SplitSpec.fraction

    def __post_init__(self):
        _check_entries("dim_values", self.dim_values, partial(check_count, "dim"))
        _check_entries("lambda_values", self.lambda_values, check_lambda)
        _check_entries("kappa_values", self.kappa_values, partial(check_count, "kappa"))
        SplitSpec(fraction=self.train_fraction)  # checks the share

    @property
    def size(self) -> int:
        return len(self.dim_values) * len(self.lambda_values) * len(self.kappa_values)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment suite: a dataset, model versions, agent counts, hyperparameters.

    Fixed hyperparameters must be valid (lambda finite and >= 0; kappa,
    dim, n_seeds and every agent count integers >= 1; master_seed an
    integer in [0, 2**64)) and, unless
    ``allow_off_grid`` is set, lie inside the default search ranges.
    ``versions`` and ``agent_counts`` are non-empty and repeat no entry.
    The split settings must form a valid :attr:`split_spec`.  Every check
    runs at construction, before any data is read.  Numbers are then stored
    as Python's (lambda as a float), so that every record can be written.
    """

    dataset: str
    versions: tuple[ExperimentVersion, ...]
    agent_counts: tuple[int, ...] = (10,)
    dim: int = 500
    lam: float = 1.0
    kappa: int = 7
    n_seeds: int = 10
    master_seed: int = 0
    split_mode: str = SplitSpec.mode  # holdout | kfold
    train_fraction: float = SplitSpec.fraction
    k_folds: int = SplitSpec.k
    eval_on_full_test: bool = False
    manifest: str | None = None
    allow_off_grid: bool = False

    def __post_init__(self):
        check_lambda(self.lam)
        check_seed("master_seed", self.master_seed)
        for name in ("kappa", "dim", "n_seeds"):
            check_count(name, getattr(self, name))
        _check_entries("versions", self.versions)
        _check_entries("agent_counts", self.agent_counts, partial(check_count, "agent count"))
        self.split_spec  # checks split_mode, train_fraction and k_folds
        # The checks admit numpy scalars and any real lambda, which JSON cannot write.
        for name in ("dim", "kappa", "n_seeds", "master_seed", "k_folds", "train_fraction"):
            object.__setattr__(self, name, _python_number(getattr(self, name)))
        object.__setattr__(self, "agent_counts", tuple(map(_python_number, self.agent_counts)))
        object.__setattr__(self, "lam", float(self.lam))
        if self.allow_off_grid:
            return
        for name, value in (("dim", self.dim), ("lam", self.lam), ("kappa", self.kappa)):
            lo, hi = _GRID_RANGES[name]
            if not lo <= value <= hi:
                raise InvalidParameterError(
                    f"{name}={value} is outside the search range [{lo}, {hi}]; "
                    "set allow_off_grid=True (--allow-off-grid) to override"
                )

    @property
    def split_spec(self) -> SplitSpec:
        """The seeded, stratified split protocol; a manifest ``split_file`` overrides it."""
        return SplitSpec(
            mode=self.split_mode, fraction=self.train_fraction, k=self.k_folds,
            seed=SeedSpec(self.master_seed).child("split"),
        )

    @property
    def cells(self) -> list[tuple[ExperimentVersion, int]]:
        """(version, agent count) pairs, one per record; centralized runs at N=1 only."""
        return [(version, n_agents) for version in self.versions
                for n_agents in ((1,) if version.kind == "centralized" else self.agent_counts)]


@dataclass(frozen=True)
class ResultRecord:
    """Aggregated outcome of one (dataset, version, agent count) suite."""

    dataset: str
    version: str
    classifier: str
    compressed: bool
    n_agents: int
    dim: int
    lam: float
    kappa: int
    n_seeds: int
    master_seed: int
    per_seed_mean: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float
    per_agent_mean: tuple[float, ...]
    payload_values_per_producer: int
    payload_bytes_per_producer: int
    config_hash: str

    @classmethod
    def of_cell(cls, config: ExperimentConfig, dataset: str, c: int, passes) -> "ResultRecord":
        """Record of ``config.cells[c]``, whose result on seed i, fold f is ``passes[i][f][c]``."""
        version, n_agents = config.cells[c]
        # Sums run in seed and fold order, one term at a time.
        per_seed = [float(np.mean([fold[c].mean_accuracy for fold in seed])) for seed in passes]
        per_agent_mean = reduce(np.add, [
            reduce(np.add, [fold[c].per_agent_accuracy for fold in seed]) / len(seed)
            for seed in passes
        ]) / config.n_seeds
        payload = passes[-1][-1][c].payload_values_per_producer
        identity = dict(
            dataset=dataset, version=version.kind, classifier=version.classifier_kind,
            compressed=version.compression, n_agents=n_agents,
            **{name: getattr(config, name) for name in _RECORD_CONFIG_FIELDS},
        )
        hashed = {"stratified": True, **{n: getattr(config, n) for n in _SPLIT_FIELDS}}
        return cls(
            **identity,
            per_seed_mean=tuple(per_seed),
            mean_accuracy=float(np.mean(per_seed)),
            std_accuracy=float(np.std(per_seed)),
            per_agent_mean=tuple(float(x) for x in per_agent_mean),
            payload_values_per_producer=payload,
            payload_bytes_per_producer=8 * payload,
            config_hash=_config_hash({**identity, **hashed, "version": version.label}),
        )

    def to_dict(self) -> dict:
        """Fields in declaration order, which is the CSV column order; tuples become lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        """Inverse of :meth:`to_dict`; every field must be present, other keys are ignored.

        ``version``, ``compressed`` and ``classifier`` must form an
        :class:`ExperimentVersion`.  Every value must be one that a suite writes.
        """
        if not isinstance(d, dict):
            raise ParseError(f"a record must be a JSON object, got {type(d).__name__}")
        values = {}
        for f in fields(cls):
            if f.name not in d:
                raise ParseError(f"record lacks field {f.name!r}")
            try:
                values[f.name] = _FIELD_DECODERS[f.type](d[f.name])
            except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
                raise ParseError(f"record field {f.name!r}: {exc}") from exc
        record = cls(**values)
        try:
            ExperimentVersion(record.version, record.compressed, record.classifier)
        except InvalidParameterError as exc:
            raise ParseError(
                f"record has version={record.version!r}, compressed={record.compressed!r}, "
                f"classifier={record.classifier!r}: {exc}"
            ) from exc
        for name, (lo, hi) in _FIELD_RANGES.items():
            if not all(lo <= v <= hi for v in np.atleast_1d(values[name])):
                raise ParseError(f"record field {name!r}: {values[name]!r} is outside [{lo}, {hi}]")
        for name, count in (("per_seed_mean", "n_seeds"), ("per_agent_mean", "n_agents")):
            if len(values[name]) != values[count]:
                raise ParseError(f"record field {name!r} holds {len(values[name])} values, "
                                 f"but {count} is {values[count]}")
        return record

    @property
    def label(self) -> str:
        """The :attr:`ExperimentVersion.label` of the version this record summarizes."""
        return ExperimentVersion(self.version, self.compressed).label


def _decoder(convert, *accepted):
    """Apply ``convert`` to a value of an accepted type; a bool is accepted only if listed."""
    def decode(value):
        if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
            names = " or ".join(t.__name__ for t in accepted)
            raise TypeError(f"expected {names}, got {value!r}")
        result = convert(value)
        if isinstance(result, float) and not math.isfinite(result):
            raise ValueError(f"expected a finite number, got {value!r}")
        return result
    return decode


_to_float = _decoder(float, int, float, str)

# Field annotation (a string under postponed evaluation) -> JSON value decoder.
# Every annotation of ResultRecord must be listed.  Numbers may be strings,
# because CSV cells are; a float must be finite (NaN and infinity are no scores).
_FIELD_DECODERS = {
    "str": _decoder(str, str),
    "bool": _decoder(bool, bool),
    "int": _decoder(int, int, str),
    "float": _to_float,
    "tuple[float, ...]": _decoder(lambda v: tuple(map(_to_float, v)), list, tuple),
}

# Record field -> the closed range that every value a suite writes there lies in.
_FIELD_RANGES = {
    **dict.fromkeys(("mean_accuracy", "per_seed_mean", "per_agent_mean"), (0, 1)),
    **dict.fromkeys(("std_accuracy", "lam"), (0, math.inf)),
    **dict.fromkeys(("n_agents", "dim", "kappa", "n_seeds"), (1, math.inf)),
}


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient of two vectors of finite numbers."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise InvalidParameterError("need two equal-length vectors of at least 2 values")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InvalidParameterError("correlation needs finite values; got NaN or infinity")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation is undefined for a zero-variance input")
    return float(np.sum(dx * dy) / (sx * sy))


def _cells(records, label: str) -> dict[tuple[str, str, int], ResultRecord]:
    """Index one :attr:`ExperimentVersion.label`'s records by (dataset, classifier, agent count).

    A centralized record sits at N=1 and is the counterpart of every agent
    count: look it up under ``key[:2] + (1,)``.  A cell holds one record.
    """
    if label not in _VERSION_LABELS:
        raise InvalidParameterError(
            f"unknown version label {label!r}; expected one of {_VERSION_LABELS}"
        )
    cells = {}
    for r in records:
        if r.label == label:
            key = (r.dataset, r.classifier, 1 if label == "centralized" else r.n_agents)
            if key in cells:
                raise PairingError(f"two {label} records for {key}")
            cells[key] = r
    return cells


def relative_improvement(records, compressed: bool = False) -> dict[int, float]:
    """Percent improvement of the distributed over the local version, per agent count.

    Pairs local records with distributed records (of the requested
    compression flavor) sharing the same dataset, classifier and agent
    count; records must cover exactly one such pairing per count.  A local
    mean accuracy of 0 leaves the improvement undefined and raises
    :class:`InvalidParameterError` naming the cell.
    """
    records = list(records)
    local = _cells(records, "local")
    dist = _cells(records, ExperimentVersion("distributed", compressed).label)
    if not local or set(local) != set(dist):
        missing = set(local).symmetric_difference(dist)
        raise PairingError(f"unmatched local/distributed records: {sorted(missing)}")
    groups = {key[:2] for key in local}
    if len(groups) != 1:
        raise PairingError(f"records span multiple dataset/classifier groups: {sorted(groups)}")
    for key in sorted(local):
        if local[key].mean_accuracy == 0.0:
            raise InvalidParameterError(
                f"relative improvement is undefined for {key}: local mean_accuracy is 0"
            )
    return {
        k[2]: 100.0 * (dist[k].mean_accuracy - local[k].mean_accuracy) / local[k].mean_accuracy
        for k in sorted(local)
    }


def _sorted_records(records) -> list[ResultRecord]:
    return sorted(
        records,
        key=lambda r: (r.dataset, r.classifier, r.version, r.compressed, r.n_agents),
    )


def records_to_jsonl(records) -> str:
    """One canonical JSON line per record; no records give the empty string."""
    return "".join(_canonical_json(r.to_dict()) + "\n" for r in _sorted_records(records))


def _csv_text(rows) -> str:
    """CSV text, one line per row; a cell holding a comma, quote or newline is quoted."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def records_to_csv(records) -> str:
    rows = [r.to_dict() for r in _sorted_records(records)]
    if not rows:
        raise InvalidParameterError("no records to report")
    return _csv_text([rows[0].keys()] + [  # lists and booleans as JSON, the rest as str
        [_canonical_json(v) if isinstance(v, (list, bool)) else str(v) for v in row.values()]
        for row in rows
    ])


def format_table(records) -> str:
    """Text table: one row per (classifier, version), one column per agent count.

    Each cell is the mean accuracy over the datasets that have a record
    for it, which over a benchmark collection is the paper's table.  A
    dataset's centralized record also fills the N=1 column of every local
    or distributed row of its classifier that has no N=1 record for that
    dataset (the two coincide by definition for a single agent).
    """
    records = list(records)
    if not records:
        raise InvalidParameterError("no records to report")
    # rows[(classifier, label)][n_agents][dataset] -> mean accuracy
    rows = {}
    for label in _VERSION_LABELS:
        for (dataset, classifier, n), r in _cells(records, label).items():
            rows.setdefault((classifier, label), {}).setdefault(n, {})[dataset] = r.mean_accuracy
    for (dataset, classifier, _), r in _cells(records, "centralized").items():
        for (row_classifier, _), row in rows.items():
            if row_classifier == classifier:
                row.setdefault(1, {}).setdefault(dataset, r.mean_accuracy)
    counts = sorted({n for row in rows.values() for n in row})
    widths = max(len(f"{c}/{l}") for c, l in rows)
    header = " " * widths + " | " + " | ".join(f"N={n:<6d}" for n in counts)
    lines = [header, "-" * len(header)]
    for (classifier, label), row in sorted(rows.items()):
        name = f"{classifier}/{label}".ljust(widths)
        cols = " | ".join(
            f"{math.fsum(row[n].values()) / len(row[n]):.4f}  " if n in row else " " * 8
            for n in counts
        )
        lines.append(f"{name} | {cols}")
    return "\n".join(lines) + "\n"


# Report format name -> renderer of a record sequence.
REPORT_FORMATS = {"jsonl": records_to_jsonl, "csv": records_to_csv, "table": format_table}


def report(records, fmt: str = "jsonl", out=None):
    """Render records in a :data:`REPORT_FORMATS` format; write to ``out`` if given.

    Returns the text when ``out`` is None.  The full text is built before
    any I/O, so an unwritable path never leaves a partial file behind.
    """
    if fmt not in REPORT_FORMATS:
        raise InvalidParameterError(f"unknown report format {fmt!r}")
    return _write_or_return(REPORT_FORMATS[fmt](records), out)


def _write_or_return(text: str, out):
    """Return ``text`` when ``out`` is None; otherwise write it there and return the path."""
    if out is None:
        return text
    out = Path(out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return out


def records_from_jsonl(path) -> list[ResultRecord]:
    """One record per non-blank line; a line that does not decode to a record raises ParseError."""
    records = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                if line.strip():
                    records.append(ResultRecord.from_dict(json.loads(line)))
            except ValueError as exc:
                raise ParseError(f"{path} line {number}: {exc}") from exc
    return records


def scatter_export(records, version_a: str, version_b: str, out=None):
    """Plot-ready pairing of per-dataset accuracy under two versions.

    Version names are :attr:`ExperimentVersion.label` values: ``centralized``,
    ``local``, ``distributed`` and ``distributed+compressed``; any other
    name raises :class:`InvalidParameterError`.  Pairs on (dataset,
    classifier, agent count), except that a centralized side matches any
    agent count, so each line is a record of the non-centralized side.
    Records without a counterpart are excluded with a warning, so exports
    stay symmetric-complete.
    """
    records = list(records)
    sides = {version_a: _cells(records, version_a), version_b: _cells(records, version_b)}
    swap = version_a == "centralized" != version_b  # walk the side with agent counts
    walked, other = (version_b, version_a) if swap else (version_a, version_b)
    rows = [("dataset", "classifier", "n_agents", "acc_a", "acc_b")]
    for key in sorted(sides[walked]):
        r = sides[walked][key]
        match = sides[other].get(key[:2] + (1,) if other == "centralized" else key)
        if match is None:
            warnings.warn(f"dataset {r.dataset!r} missing under {other!r}; excluded")
            continue
        ra, rb = (match, r) if swap else (r, match)
        rows.append((r.dataset, r.classifier, r.n_agents, ra.mean_accuracy, rb.mean_accuracy))
    return _write_or_return(_csv_text(rows), out)
