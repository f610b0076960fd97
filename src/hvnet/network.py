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

All model versions of one seed share the projection, the encodings, the
shard partitions and the local classifiers.  A :class:`SharedPass` holds the
inputs of one (seed, fold) and computes each of them once; every
realization, run by :func:`run_version`, reads them from a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import (
    CLASSIFIER_KINDS,
    ClassifierMatrix,
    evaluate,
    finalize_centroids,
    one_hot,
    train_centroids,
    train_rls,
)
from .compression import compress, decompress, generate_keys
from .data import Dataset
from .encoding import InputProjection, encode_batch, init_projection
from .errors import InsufficientDataError, InvalidParameterError, ProtocolError
from .hdc import SeedSpec, check_count, superpose

__all__ = [
    "AgentNetwork",
    "DataPartition",
    "ExperimentVersion",
    "ModelParams",
    "RunResult",
    "SharedPass",
    "exchange_and_aggregate",
    "partition",
    "run_version",
    "train_local",
]

VERSION_KINDS = ("centralized", "local", "distributed")


@dataclass(frozen=True)
class AgentNetwork:
    """Undirected connectivity between agents; the diagonal is irrelevant because
    every agent always aggregates its own classifier."""

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
        if len(set(self.agent_ids)) != n:
            raise InvalidParameterError("agent_ids must be distinct")

    @classmethod
    def fully_connected(cls, n_agents: int, agent_ids=None) -> "AgentNetwork":
        check_count("n_agents", n_agents)
        ids = tuple(range(n_agents)) if agent_ids is None else tuple(agent_ids)
        return cls(omega=np.ones((n_agents, n_agents), dtype=np.int64), agent_ids=ids)

    @property
    def n_agents(self) -> int:
        return len(self.agent_ids)

    def neighborhood(self, p: int) -> list[int]:
        """Indices of p's neighbors plus p itself, sorted by agent id."""
        members = set(np.flatnonzero(np.asarray(self.omega)[p]).tolist())
        members.add(p)
        return sorted(members, key=lambda s: self.agent_ids[s])


@dataclass(frozen=True)
class DataPartition:
    shards: tuple[np.ndarray, ...]


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
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] < 1:
        raise InvalidParameterError("shard must be non-empty")
    return _fit(classifier_kind, encode_batch(X, proj, kappa), y, n_classes, lam)


def _fit(classifier_kind: str, H, y, n_classes: int, lam: float) -> ClassifierMatrix:
    """Train one classifier of the given kind on hidden activations and 1-based labels."""
    if classifier_kind == "centroid":
        return train_centroids(H, y, n_classes)
    return train_rls(H, one_hot(y, n_classes), lam)


def exchange_and_aggregate(
    network: AgentNetwork, classifiers: list[ClassifierMatrix], compression: bool
) -> tuple[list[ClassifierMatrix], int]:
    """One-shot exchange: each agent sums the classifiers of its neighborhood.

    Returns the aggregated classifier of every agent and the number of
    float64 values each agent sends.

    Uncompressed centroids travel as raw per-class sums, and each agent
    normalizes after aggregation; over a fully connected network this
    reproduces the centralized centroid classifier exactly.  Compressed
    classifiers are packed once per producer; every consumer regenerates the
    producer's keys from its agent id and decompresses the reconstruction,
    which is then aggregated as-is.  Each distinct neighborhood is bundled once
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

    payloads = []
    for agent_id, c in zip(network.agent_ids, classifiers):
        if compression:
            keys = generate_keys(agent_id, n_classes, dim)
            # Deterministic, so one reconstruction stands in for every consumer's.
            payloads.append(decompress(compress(c, keys), keys, kind=kind).weights)
        else:
            payloads.append(c.class_sums if raw_sums else c.weights)

    by_neighborhood: dict[tuple[int, ...], ClassifierMatrix] = {}
    aggregated = []
    for p in range(network.n_agents):
        members = tuple(network.neighborhood(p))
        if members not in by_neighborhood:
            total = superpose(payloads[m] for m in members)
            if raw_sums:
                by_neighborhood[members] = finalize_centroids(total)
            else:
                by_neighborhood[members] = ClassifierMatrix(weights=total, kind=kind)
        aggregated.append(by_neighborhood[members])
    return aggregated, dim if compression else n_classes * dim


class SharedPass:
    """The inputs of one (seed, fold) and the work its model versions share, done once.

    Holds the dataset, the train and test indices, the model parameters and
    the seed that every realization of :func:`run_version` reads.  Draws
    the projection and encodes the train and test rows on first use,
    partitions the shards once per agent count, and trains the local
    classifiers once per (classifier kind, agent count).  A pass lives as
    long as its caller keeps it; nothing is cached at module level.  Local
    classifiers are kept for one agent count at a time, which bounds memory
    by the largest network, so a caller that visits agent counts in turn
    (as ``hvnet.harness._run_pass`` does) trains each set once.
    """

    def __init__(self, ds: Dataset, train_idx, test_idx, params: ModelParams, seed: SeedSpec):
        self.ds = ds
        self.train_idx = np.asarray(train_idx)
        self.test_idx = np.asarray(test_idx)
        self.params = params
        self.seed = seed
        self._encoded: tuple[np.ndarray, np.ndarray] | None = None
        self._shards: dict[int, tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]] = {}
        self._locals: dict[tuple[str, int], list[ClassifierMatrix]] = {}

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

    def shards(self, n_agents: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Train and test row shards, positions into the index sets, one per agent."""
        if n_agents not in self._shards:
            self._shards[n_agents] = (
                partition(self.train_idx.size, n_agents, self.seed.child("train_partition")).shards,
                partition(self.test_idx.size, n_agents, self.seed.child("test_partition")).shards,
            )
        return self._shards[n_agents]

    def fit(self, classifier_kind: str, rows) -> ClassifierMatrix:
        """Train one classifier on the given train rows."""
        H_train, y_train = self.encoded()[0], self.ds.labels[self.train_idx]
        n_classes, lam = self.ds.n_classes, self.params.lam
        return _fit(classifier_kind, H_train[rows], y_train[rows], n_classes, lam)

    def local_models(self, classifier_kind: str, n_agents: int) -> list[ClassifierMatrix]:
        """One classifier per agent, each trained on that agent's train shard."""
        key = (classifier_kind, n_agents)
        if key not in self._locals:
            if any(n != n_agents for _, n in self._locals):
                self._locals.clear()
            train_shards = self.shards(n_agents)[0]
            self._locals[key] = [self.fit(classifier_kind, rows) for rows in train_shards]
        return self._locals[key]


def run_version(
    shared: SharedPass,
    version: ExperimentVersion,
    n_agents: int,
    network: AgentNetwork | None = None,
    eval_on_full_test: bool = False,
) -> RunResult:
    """Run one seeded realization of a model version and report per-agent accuracy.

    The dataset, index sets, parameters and seed come from ``shared``, and
    all randomness (projection, shard partitions) derives from its seed.
    Local and distributed versions evaluate each agent on its own test
    shard unless ``eval_on_full_test`` is set; the centralized version
    always uses the full test set.  There, each distinct model is scored once.
    """
    if shared.train_idx.size < 1 or shared.test_idx.size < 1:
        raise InvalidParameterError("train and test index sets must be non-empty")
    H_test = shared.encoded()[1]
    y_test = shared.ds.labels[shared.test_idx]

    if version.kind == "centralized":
        models = [shared.fit(version.classifier_kind, np.arange(shared.train_idx.size))]
        payload_per, eval_on_full_test = 0, True
    else:
        models, payload_per = shared.local_models(version.classifier_kind, n_agents), 0
        if version.kind == "distributed":
            net = network if network is not None else AgentNetwork.fully_connected(n_agents)
            if net.n_agents != n_agents:
                raise InvalidParameterError("network size must match n_agents")
            models, payload_per = exchange_and_aggregate(net, models, version.compression)

    if eval_on_full_test:
        distinct = {id(model): model for model in models}
        accs = {key: evaluate(model, H_test, y_test) for key, model in distinct.items()}
        per_agent = [accs[id(model)] for model in models]
    else:
        test_shards = shared.shards(n_agents)[1]
        per_agent = [
            evaluate(model, H_test[rows], y_test[rows]) for model, rows in zip(models, test_shards)
        ]
    return RunResult(len(models), np.asarray(per_agent), payload_per)
