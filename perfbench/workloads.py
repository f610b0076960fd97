"""The benchmark's seeded workloads, and the checks on their outputs.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
imports ``hvnet`` from there; it exits with an error when the checkout has
no ``src/hvnet``, so the benchmark never measures an installed copy.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hvnet" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hvnet sources under {SRC}")
sys.path.insert(0, str(SRC))

import hvnet  # noqa: E402

if Path(hvnet.__file__).resolve().parent != SRC / "hvnet":
    sys.exit(f"perfbench: imported hvnet from {hvnet.__file__}, not from {SRC}")

from hvnet.classifiers import evaluate, one_hot, train_rls  # noqa: E402
from hvnet.data import SplitSpec, normalize, resolve_dataset, split  # noqa: E402
from hvnet.encoding import encode_batch, init_projection  # noqa: E402
from hvnet.errors import EmptyClassWarning, KeyCorrelationWarning  # noqa: E402
from hvnet.harness import ExperimentConfig, GridSpec, records_to_jsonl  # noqa: E402
from hvnet.hdc import SeedSpec  # noqa: E402
from hvnet.network import ExperimentVersion  # noqa: E402

# Warnings these workloads raise by design: shards without some class, and
# correlated Gaussian keys.  They are counted, not treated as failures.
EXPECTED_WARNINGS = {w.__name__ for w in (EmptyClassWarning, KeyCorrelationWarning)}


@dataclass
class Outcome:
    """What one timed call produced, reduced to what the checks and metrics need."""

    digest: str  # sha256 of the records' JSONL, or of the selected triple
    accuracy_mean: float
    wire_bytes: int
    problems: list[str]


@dataclass
class Case:
    """A workload bound to one seed: the timed call and the check of its result."""

    call: Callable[[], object]
    span_name: str  # the span a traced call is recorded under
    units: int  # work items one call completes
    unit_name: str
    outcome: Callable[[object], Outcome]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SuiteWorkload:
    """``run_suite`` on a fixed dataset; the seed is the suite's master seed."""

    name: str
    config: ExperimentConfig
    default_seed: int | None  # None: no golden output to match
    # sha256 of the records' JSONL at the default seed, as of commit 391722787ec1
    golden_sha256: str

    def prepare(self, seed: int) -> Case:
        ds = resolve_dataset(self.config.dataset)
        config = replace(self.config, master_seed=seed)
        units = config.n_seeds * sum(
            1 if v.kind == "centralized" else len(config.agent_counts) for v in config.versions
        )

        def call():
            return hvnet.harness.run_suite(config, dataset=ds)

        def outcome(records) -> Outcome:
            text = records_to_jsonl(records)
            digest = _sha256(text)
            problems = check_suite_records(config, ds.n_classes, records)
            if seed == self.default_seed and digest != self.golden_sha256:
                problems.append(f"records sha256 {digest} != golden {self.golden_sha256}")
            return Outcome(
                digest=digest,
                accuracy_mean=math.fsum(r.mean_accuracy for r in records) / len(records),
                wire_bytes=sum(r.payload_bytes_per_producer * r.n_agents for r in records),
                problems=problems,
            )

        return Case(call, "harness.run_suite", units, "run_version realizations", outcome)


def check_suite_records(config: ExperimentConfig, n_classes: int, records) -> list[str]:
    """Invariants every suite output must satisfy, whatever the seed."""
    problems = []
    expected = sorted(
        (v.kind, v.compression, v.classifier_kind, n)
        for v in config.versions
        for n in ((1,) if v.kind == "centralized" else config.agent_counts)
    )
    got = sorted((r.version, r.compressed, r.classifier, r.n_agents) for r in records)
    if got != expected:
        return [f"records cover {got}, expected {expected}"]
    for r in records:
        where = f"{r.version}/{r.classifier}/compressed={r.compressed}/N={r.n_agents}"
        if r.version == "local":
            payload = 0
        elif r.compressed:
            payload = config.dim
        else:
            payload = n_classes * config.dim
        if r.payload_values_per_producer != payload or r.payload_bytes_per_producer != 8 * payload:
            problems.append(f"{where}: payload {r.payload_values_per_producer} values, "
                            f"expected {payload}")
        if len(r.per_seed_mean) != config.n_seeds or len(r.per_agent_mean) != r.n_agents:
            problems.append(f"{where}: wrong number of per-seed or per-agent means")
        accs = (r.mean_accuracy, *r.per_seed_mean, *r.per_agent_mean)
        if not all(0.0 <= a <= 1.0 for a in accs):
            problems.append(f"{where}: accuracy outside [0, 1]")
        # Uncompressed models must beat guessing; 10:1 packing may not.
        if not r.compressed and r.mean_accuracy <= 1.0 / n_classes:
            problems.append(f"{where}: accuracy {r.mean_accuracy} is at chance level")
    return problems


@dataclass(frozen=True)
class GridWorkload:
    """``grid_search`` on a fixed dataset; the seed is the search's ``SeedSpec``."""

    name: str
    dataset: str
    grid: GridSpec
    default_seed: int | None  # None: no golden output to match
    # the triple selected at the default seed, as of commit 391722787ec1
    golden_triple: tuple[int, float, int]

    def prepare(self, seed: int) -> Case:
        ds = resolve_dataset(self.dataset)
        spec = SeedSpec(seed)

        def call():
            return hvnet.harness.grid_search(ds, self.grid, spec)

        def outcome(triple) -> Outcome:
            problems = []
            dim, lam, kappa = triple
            if (dim not in self.grid.dim_values or lam not in self.grid.lambda_values
                    or kappa not in self.grid.kappa_values):
                problems.append(f"selected {triple} is not a grid point")
                accuracy = 0.0
            else:
                accuracy = validation_accuracy(ds, self.grid, spec, triple)
                if accuracy <= 1.0 / ds.n_classes:
                    problems.append(f"selected {triple} scores {accuracy}, chance level")
            if seed == self.default_seed and tuple(triple) != self.golden_triple:
                problems.append(f"selected {triple} != golden {self.golden_triple}")
            return Outcome(_sha256(repr(tuple(triple))), accuracy, 0, problems)

        return Case(call, "harness.grid_search", self.grid.size, "grid candidates", outcome)


def validation_accuracy(ds, grid: GridSpec, seed: SeedSpec, triple) -> float:
    """Validation accuracy of one grid point, rebuilt the way ``grid_search`` scores it."""
    dim, lam, kappa = triple
    spec = SplitSpec(mode="holdout", fraction=0.5, stratified=True, seed=seed.child("grid_split"))
    train_idx, val_idx = split(ds, spec)
    ds = normalize(ds, train_idx)
    proj = init_projection(
        ds.n_features, dim, seed.child("grid_projection", sorted(grid.dim_values).index(dim))
    )
    H = encode_batch(ds.samples[train_idx], proj, kappa)
    model = train_rls(H, one_hot(ds.labels[train_idx], ds.n_classes), lam)
    return evaluate(model, encode_batch(ds.samples[val_idx], proj, kappa), ds.labels[val_idx])


# Each workload's timed call is kept to a few seconds so that one run holds
# several samples; ``units`` says how much of the paper's protocol a call covers.
WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance reference suite (tests/test_acceptance.py) for one
        # seed: 12 realizations, two distinct encodings behind 24 encode calls.
        SuiteWorkload(
            name="suite-reference",
            config=ExperimentConfig(
                dataset="synth:classes=3,features=10,samples=6000,sep=2.0,seed=11",
                versions=(
                    ExperimentVersion("local", classifier_kind="rls"),
                    ExperimentVersion("distributed", classifier_kind="rls"),
                    ExperimentVersion("distributed", compression=True, classifier_kind="rls"),
                    ExperimentVersion("local", classifier_kind="centroid"),
                ),
                agent_counts=(10, 50, 100),
                dim=500,
                lam=1.0,
                kappa=7,
                n_seeds=1,
                train_fraction=0.1,
            ),
            default_seed=42,
            golden_sha256="6e5191bb0754ef63c10df958dc334722bff129534b596c8f69f12b0138cfbd37",
        ),
        # Two dims of the default 16 lambda x 4 kappa grid: Cholesky-bound,
        # and it never reaches the network or compression modules.
        GridWorkload(
            name="grid-restricted",
            dataset="synth:classes=3,features=10,samples=3000,sep=2.0,seed=1",
            grid=GridSpec(dim_values=(250, 750)),
            default_seed=0,
            golden_triple=(250, 32.0, 1),
        ),
        # Wide exchanges: N in {100, 200} over 10 classes, through all three
        # exchange paths (raw weights, centroid sums, packed hypervectors).
        # Not gated in BENCHMARK.json: its wall time drifts too much on a
        # shared VM (BASELINE.md); it is kept for its per-layer split.
        SuiteWorkload(
            name="exchange-wide",
            config=ExperimentConfig(
                dataset="synth:classes=10,features=4,samples=10000,sep=3.0,seed=7",
                versions=(
                    ExperimentVersion("distributed", compression=True, classifier_kind="rls"),
                    ExperimentVersion("distributed", classifier_kind="rls"),
                    ExperimentVersion("distributed", classifier_kind="centroid"),
                ),
                agent_counts=(100, 200),
                dim=500,
                lam=1.0,
                kappa=7,
                n_seeds=1,
                train_fraction=0.5,
            ),
            default_seed=0,
            golden_sha256="f7d026987566f1665bf6a24d0fd4cca8576dbbd9c74ecb39229b777566f5b049",
        ),
    )
}


def run_checked(case: Case) -> tuple[object, dict[str, int]]:
    """Run the call, recording every warning; returns the result and warning counts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = case.call()
    return result, dict(Counter(w.category.__name__ for w in caught))
