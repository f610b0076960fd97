"""The whole pipeline against the oracle of the paper's model in ``oracle.py``.

Every draw that the determinism contract fixes (split and fold indices,
projection columns, shards and keys) comes from the library; everything
computed from them comes from the oracle, which shares none of the
library's devices.  So the shared pass, the dual solve, blocked scoring,
deduplicated neighbourhoods, batched packing and narrow integers are
checked together against the equations.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvnet.network
import oracle
from hvnet.compression import generate_keys
from hvnet.data import Dataset, normalize, split
from hvnet.encoding import init_projection
from hvnet.hdc import SeedSpec
from hvnet.network import AgentNetwork, ModelParams, SharedPass, partition, run_version
from hvnet.records import DEFAULT_LAMBDA_GRID, ExperimentConfig, ExperimentVersion
from topology import ring

# Weights agree to this share of their largest magnitude, and accuracies are
# compared only where every scored row's winner leads by more than this share
# of its scale (oracle.decided).
REL = 1e-9


def omega_of(shape: str, n: int, rng) -> np.ndarray:
    """A full, ring or random symmetric Ω of n agents."""
    if shape == "full":
        return np.ones((n, n), dtype=np.int64)
    if shape == "ring":
        return ring(range(n)).omega
    upper = np.triu(rng.random((n, n)) < 0.5, k=1)
    return (upper | upper.T).astype(np.int64)


@st.composite
def setups(draw):
    """A tiny dataset, a config of every version of one classifier kind, and a network."""
    n_classes = draw(st.integers(2, 4))
    n_samples = draw(st.integers(12, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.arange(n_samples) % n_classes + 1)
    # Few integer levels, so normalized values often fall on a code's half-level.
    n_features = draw(st.integers(1, 6))
    samples = rng.integers(0, 5, size=(n_samples, n_features)) + labels[:, None]
    n_agents = draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(0, 999), min_size=n_agents, max_size=n_agents, unique=True))
    shape = draw(st.sampled_from(["full", "ring", "random"]))
    network = AgentNetwork(omega=omega_of(shape, n_agents, rng), agent_ids=tuple(ids))
    classifier = draw(st.sampled_from(["rls", "centroid"]))
    config = ExperimentConfig(
        dataset="oracle",
        versions=tuple(ExperimentVersion(kind, compressed, classifier) for kind, compressed in [
            ("centralized", False), ("local", False), ("distributed", False),
            ("distributed", True),
        ]),
        agent_counts=(n_agents,),
        dim=draw(st.integers(8, 64)),
        lam=draw(st.sampled_from(DEFAULT_LAMBDA_GRID)),
        kappa=draw(st.integers(1, 7)),
        n_seeds=1,
        master_seed=draw(st.integers(0, 2**64 - 1)),
        split_mode=draw(st.sampled_from(["holdout", "kfold"])),
        train_fraction=draw(st.sampled_from([0.3, 0.5, 0.7])),
        k_folds=draw(st.integers(2, 3)),
        eval_on_full_test=draw(st.booleans()),
        allow_off_grid=True,
    )
    dataset = Dataset(samples=samples.astype(np.float64), labels=labels, n_classes=n_classes)
    return dataset, config, network


def recording(function, results):
    """``function``, appending each of its results to ``results``."""
    def record(*args, **kwargs):
        results.append(function(*args, **kwargs))
        return results[-1]
    return record


def library_run(shared, version, network, full_test):
    """run_version's result and the models it scored, one per agent."""
    fitted, exchanged = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hvnet.network, "fit_shards", recording(hvnet.network.fit_shards, fitted))
        mp.setattr(hvnet.network, "exchange_and_aggregate",
                   recording(hvnet.network.exchange_and_aggregate, exchanged))
        result = run_version(shared, version, network, full_test)
    # run_version fits its one version's models in one call.
    return result, exchanged[0][0] if exchanged else fitted[0]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(setups())
def test_every_version_computes_the_papers_model(setup):
    ds, config, network = setup
    n_agents, n_classes = network.n_agents, ds.n_classes
    folds = split(ds, config.split_spec)
    if config.split_mode == "holdout":
        pairs = [folds]
    else:
        pairs = [(np.sort(np.concatenate(folds[:f] + folds[f + 1:])), folds[f])
                 for f in range(len(folds))]
    keys = [generate_keys(agent_id, n_classes, config.dim).keys for agent_id in network.agent_ids]
    params = ModelParams(dim=config.dim, kappa=config.kappa, lam=config.lam)
    for f, (train, test) in enumerate(pairs):
        seed = SeedSpec(config.master_seed).child("seed", 0)
        seed = seed if len(pairs) == 1 else seed.child("fold", f)
        columns = init_projection(ds.n_features, config.dim, seed.child("projection")).columns
        X = oracle.normalize(ds.samples, train)
        H_train = oracle.encode_rows(X[train], columns, config.kappa)
        H_test = oracle.encode_rows(X[test], columns, config.kappa)
        train_shards = partition(train.size, n_agents, seed.child("train_partition")).shards
        test_shards = partition(test.size, n_agents, seed.child("test_partition")).shards
        shared = SharedPass(normalize(ds, train), train, test, params, seed)
        np.testing.assert_array_equal(shared.encoded()[0], H_train)
        np.testing.assert_array_equal(shared.encoded()[1], H_test)
        y_train, y_test = ds.labels[train], ds.labels[test]

        for version in config.versions:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # shards that lack a class
                result, models = library_run(shared, version, network, config.eval_on_full_test)
            want = oracle.realize(
                (version.kind, version.compression, version.classifier_kind),
                H_train, y_train, n_classes, config.lam, train_shards, network.omega, keys,
            )
            assert len(models) == len(want) == len(result.per_agent_accuracy)
            for model, w in zip(models, want):
                assert np.max(np.abs(model.weights - w)) <= REL * np.max(np.abs(w)), version
            on_full = config.eval_on_full_test or version.kind == "centralized"
            scored = [np.arange(test.size)] * len(want) if on_full else test_shards
            for acc, w, rows in zip(result.per_agent_accuracy, want, scored):
                if oracle.decided(w, H_test[rows], REL):
                    assert acc == oracle.accuracy(w, H_test[rows], y_test[rows]), version
