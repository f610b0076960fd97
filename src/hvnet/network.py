"""Agent-network simulation: shard the data, train locally, exchange, aggregate.

Agents never see each other's samples; the only things crossing agent
boundaries are classifier matrices (or their compressed hypervectors),
so the exchange payload size is independent of shard sizes.  Aggregation
is a single round: every agent sums the classifiers of its neighbors and
itself.  Agents with the same neighborhood get the same sum, so each
distinct neighborhood is summed once, by :func:`hvnet.hdc.superpose` over
its members in sorted-agent-id order.  That order is part of the
byte-identity contract: the result is order-free in the agent ids, and
it is not a BLAS product, which would round differently.

All model versions and agent counts of one (seed, fold) share the
projection, the encodings and the agents' keys; a :class:`SharedPass`
holds them and computes each once.  :func:`run_versions` holds what one
network needs: it partitions the shards, fits each classifier kind's local
models in one ``fit_shards`` call, realizes every version and scores them
together in one ``evaluate_shards`` call, each block of test rows cast once
for all of them.  Its per-network work is freed when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import (
    ClassifierMatrix,
    evaluate_shards,
    finalize_centroids,
    fit_shards,
)
# perfbench/tracer.py wraps these names in this module, which calls none of
# them, so they must stay importable from it.
from .classifiers import evaluate, one_hot, train_centroids, train_rls
# compress and decompress are not called here, but perfbench/tracer.py wraps
# these names in this module, so they must stay importable from it.
from .compression import compress, decompress, generate_keys, pack, unpack
from .data import Dataset
from .encoding import InputProjection, encode_batch, init_projection
from .errors import InsufficientDataError, InvalidParameterError, ProtocolError
from .hdc import SeedSpec, check_count, check_rows, check_seed, superpose
from .records import ExperimentVersion

__all__ = [
    "AgentNetwork",
    "DataPartition",
    "ModelParams",
    "RunResult",
    "SharedPass",
    "exchange_and_aggregate",
    "partition",
    "run_version",
    "run_versions",
    "train_local",
]

# Producers packed and unpacked per array call in a compressed exchange; it
# bounds the (block, n_classes, dim) temporaries.
EXCHANGE_BLOCK = 16


@dataclass(frozen=True)
class AgentNetwork:
    """Undirected connectivity between agents; the diagonal is irrelevant because
    every agent always aggregates its own classifier.  Each agent id is a seed
    (``check_seed``), from which its compression keys are drawn."""

    omega: np.ndarray  # (n, n) with entries in {0, 1}, symmetric
    agent_ids: tuple[int, ...]

    def __post_init__(self):
        om = np.asarray(self.omega)
        n = len(self.agent_ids)
        if om.shape != (n, n):
            raise InvalidParameterError("omega must be square and match agent_ids")
        if not np.array_equal(om, om.T):
            raise InvalidParameterError("omega must be symmetric")
        if not np.all((om == 0) | (om == 1)):
            raise InvalidParameterError("omega entries must be 0 or 1")
        for agent_id in self.agent_ids:
            check_seed("agent id", agent_id)
        if len(set(self.agent_ids)) != n:
            raise InvalidParameterError("agent_ids must be distinct")

    @classmethod
    def fully_connected(cls, n_agents: int) -> "AgentNetwork":
        check_count("n_agents", n_agents)
        return cls(np.ones((n_agents, n_agents), dtype=np.int64), tuple(range(n_agents)))

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)


@dataclass(frozen=True)
class DataPartition:
    shards: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ModelParams:
    dim: int
    kappa: int
    lam: float


@dataclass(frozen=True)
class RunResult:
    n_agents: int
    per_agent_accuracy: np.ndarray
    payload_values_per_producer: int

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.per_agent_accuracy))


def partition(n_samples: int, n_agents: int, seed: SeedSpec) -> DataPartition:
    """Uniform seeded shuffle split into n_agents near-equal disjoint shards."""
    check_count("n_samples", n_samples)
    check_count("n_agents", n_agents)
    if n_samples < n_agents:
        raise InsufficientDataError(
            f"{n_samples} samples cannot give {n_agents} non-empty shards"
        )
    perm = seed.rng().permutation(n_samples)
    return DataPartition(shards=tuple(np.array_split(perm, n_agents)))


def train_local(
    X, y, classifier_kind: str, proj: InputProjection, kappa: int, lam: float, n_classes: int
) -> ClassifierMatrix:
    """Encode one shard with the shared projection and train its classifier.

    A shard may lack some class entirely: least squares proceeds with an
    all-zero one-hot column, centroids produce a zero row.
    """
    return fit_shards(classifier_kind, encode_batch(X, proj, kappa), y, None, n_classes, lam)[0]


def exchange_and_aggregate(
    network: AgentNetwork,
    classifiers: list[ClassifierMatrix],
    compression: bool,
    key_sets: dict[tuple[int, int, int], np.ndarray] | None = None,
) -> tuple[list[ClassifierMatrix], int]:
    """One-shot exchange: each agent sums the classifiers of its neighborhood.

    Returns the aggregated classifier of every agent and the number of
    float64 values each agent sends.

    Uncompressed centroids travel as raw per-class sums, and each agent
    normalizes after aggregation; over a fully connected network this
    reproduces the centralized centroid classifier exactly.  Compressed
    classifiers are packed once per producer, ``EXCHANGE_BLOCK`` producers per
    array call; every consumer regenerates the producer's keys from its agent
    id and unpacks the reconstruction, which is then aggregated as-is.  Each
    row is bit-identical to a one-agent ``compress`` and ``decompress``.
    Keys depend on (agent id, n_classes, dim) alone, so ``key_sets``, a dict
    of key arrays under that triple, is read and filled: a caller that keeps
    one across exchanges, as a :class:`SharedPass` does, generates each
    agent's keys once.  By default every call starts a fresh dict.  Each
    distinct neighborhood (a distinct row of Ω ∨ I) is bundled once
    by ``superpose``, and agents sharing a neighborhood share that aggregate.
    """
    if len(classifiers) != network.n_agents:
        raise ProtocolError("need exactly one classifier per agent")
    kinds = {c.kind for c in classifiers}
    shapes = {c.weights.shape for c in classifiers}
    if len(kinds) != 1 or len(shapes) != 1:
        raise ProtocolError(f"agents disagree on classifier kind/shape: {kinds}, {shapes}")
    (kind,), ((n_classes, dim),) = kinds, shapes
    raw_sums = kind == "centroid" and not compression
    if raw_sums and any(c.class_sums is None for c in classifiers):
        raise ProtocolError("centroid exchange requires class sums")

    if compression:
        key_sets = {} if key_sets is None else key_sets
        payloads = []
        for start in range(0, network.n_agents, EXCHANGE_BLOCK):
            ids = network.agent_ids[start:start + EXCHANGE_BLOCK]
            for agent_id in ids:
                slot = (agent_id, n_classes, dim)
                if slot not in key_sets:
                    key_sets[slot] = generate_keys(*slot).keys
            keys = np.stack([key_sets[agent_id, n_classes, dim] for agent_id in ids])
            weights = np.stack([c.weights for c in classifiers[start:start + EXCHANGE_BLOCK]])
            # Deterministic, so one reconstruction stands in for every consumer's.
            payloads.extend(unpack(pack(weights, keys), keys, ids))
    else:
        payloads = [c.class_sums if raw_sums else c.weights for c in classifiers]

    # Row p of Ω ∨ I is agent p's neighborhood; agents with equal rows share one sum.
    members = np.asarray(network.omega) != 0
    np.fill_diagonal(members, True)
    by_agent_id = np.array(sorted(range(network.n_agents), key=network.agent_ids.__getitem__))
    by_neighborhood: dict[bytes, ClassifierMatrix] = {}
    aggregated = []
    for row in members:
        key = row.tobytes()
        if key not in by_neighborhood:
            total = superpose(payloads[m] for m in by_agent_id[row[by_agent_id]])
            if raw_sums:
                by_neighborhood[key] = finalize_centroids(total)
            else:
                by_neighborhood[key] = ClassifierMatrix(weights=total, kind=kind)
        aggregated.append(by_neighborhood[key])
    return aggregated, dim if compression else n_classes * dim


class SharedPass:
    """The inputs of one (seed, fold) and the work every agent count shares, done once.

    Holds the dataset, the train and test indices, the model parameters and
    the seed that every realization reads.  Draws the projection and
    encodes the train and test rows on first use.  ``key_sets`` holds every
    agent's compression keys once they are generated: an agent's keys
    depend on its id alone, so they serve every agent count.  Nothing here
    depends on the agent count; shards and local classifiers live in one
    :func:`run_versions` call.  A pass lives as long as its caller keeps
    it; nothing is cached at module level.
    """

    def __init__(self, ds: Dataset, train_idx, test_idx, params: ModelParams, seed: SeedSpec):
        self.ds = ds
        self.train_idx = train_idx  # checked by run_versions
        self.test_idx = test_idx
        self.params = params
        self.seed = seed
        self.key_sets: dict[tuple[int, int, int], np.ndarray] = {}
        self._encoded: tuple[np.ndarray, np.ndarray] | None = None

    def encoded(self) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations of the train and the test rows."""
        if self._encoded is None:
            ds, params = self.ds, self.params
            proj = init_projection(ds.n_features, params.dim, self.seed.child("projection"))
            self._encoded = (
                encode_batch(ds.samples[self.train_idx], proj, params.kappa),
                encode_batch(ds.samples[self.test_idx], proj, params.kappa),
            )
        return self._encoded

    def fit(self, classifier_kind: str, shards) -> list[ClassifierMatrix]:
        """One classifier per shard, a set of positions in the train rows."""
        return fit_shards(classifier_kind, self.encoded()[0], self.ds.labels[self.train_idx],
                          shards, self.ds.n_classes, self.params.lam)


def run_versions(
    shared: SharedPass,
    versions: list[ExperimentVersion],
    network: AgentNetwork,
    eval_on_full_test: bool = False,
) -> list[RunResult]:
    """Run one seeded realization of each version over ``network``, in order.

    The dataset, index sets, parameters and seed come from ``shared``, and
    all randomness (projection, shard partitions) derives from its seed.
    The centralized version has one model, fit on every train row; the
    local version has each agent's own, fit on its train shard; the
    distributed version has each agent's aggregate over ``network``.  Both
    shard partitions are drawn once, and each classifier kind's local
    models are fit once, by one ``fit_shards`` call; both are dropped when
    the call returns.

    Local and distributed versions evaluate each agent on its own test
    shard unless ``eval_on_full_test`` is set; the centralized version
    always uses the full test set.  One ``evaluate_shards`` call scores
    them all: its row sets are the full test set and each agent's test
    shard, each gathered and cast once per block, and each distinct model
    is scored once on each row set that reads it.  Each model sees the
    rows it would see alone, one model per product, so every accuracy
    equals the one-version run bit for bit.  An exception raised while
    realizing a version carries it as ``failed_version``.
    """
    n_train, n_test = map(len, check_rows("train and test indices",
                                          [shared.train_idx, shared.test_idx], shared.ds.n_samples))
    seed = shared.seed
    train_shards = partition(n_train, network.n_agents, seed.child("train_partition")).shards
    test_shards = partition(n_test, network.n_agents, seed.child("test_partition")).shards
    local, realized = {}, []
    for version in versions:
        kind = version.classifier_kind
        try:
            if version.kind == "centralized":
                models, payload = shared.fit(kind, [np.arange(n_train)]), 0
            else:
                if kind not in local:
                    local[kind] = shared.fit(kind, train_shards)
                models, payload = local[kind], 0
            if version.kind == "distributed":
                models, payload = exchange_and_aggregate(
                    network, models, version.compression, shared.key_sets
                )
        except Exception as exc:
            exc.failed_version = version
            raise
        full = eval_on_full_test or version.kind == "centralized"
        # Row set 0 is the full test set, row set p + 1 agent p's test shard.
        realized.append(([(0 if full else p + 1, m) for p, m in enumerate(models)], payload))

    rows = [np.arange(n_test), *test_shards]
    on_set = [{} for _ in rows]  # per row set: id(model) -> model, each model once
    for reads, _ in realized:
        for r, model in reads:
            on_set[r][id(model)] = model
    used = [r for r, models in enumerate(on_set) if models]  # none if there are no versions
    scores = used and evaluate_shards([on_set[r].values() for r in used], shared.encoded()[1],
                                      shared.ds.labels[shared.test_idx], [rows[r] for r in used])
    acc = {(r, key): a for r, accs in zip(used, scores) for key, a in zip(on_set[r], accs)}
    return [
        RunResult(len(reads), np.asarray([acc[r, id(m)] for r, m in reads]), payload)
        for reads, payload in realized
    ]


def run_version(
    shared: SharedPass,
    version: ExperimentVersion,
    network: AgentNetwork,
    eval_on_full_test: bool = False,
) -> RunResult:
    """Run one seeded realization of a model version: :func:`run_versions` of one."""
    return run_versions(shared, [version], network, eval_on_full_test)[0]
