"""Partitioning, local training, one-shot exchange, and version runs."""

import numpy as np
import pytest

from hvnet.classifiers import ClassifierMatrix, predict_batch, train_centroids
from hvnet.data import SplitSpec, split, synth_blobs
from hvnet.encoding import encode_batch, init_projection
from hvnet.errors import (
    DimensionError,
    InsufficientDataError,
    InvalidParameterError,
    ProtocolError,
)
from hvnet.hdc import SeedSpec
from hvnet.network import (
    AgentNetwork,
    ModelParams,
    SharedPass,
    exchange_and_aggregate,
    partition,
    run_version,
    run_versions,
    train_local,
)
from hvnet.records import ExperimentVersion
from topology import sorted_neighborhood


@pytest.fixture(scope="module")
def blobs():
    ds = synth_blobs(3, 6, 400, 4.0, SeedSpec(0).child("synth"))
    train_idx, test_idx = split(ds, SplitSpec(seed=SeedSpec(1)))
    return ds, train_idx, test_idx


PARAMS = ModelParams(dim=80, kappa=7, lam=1.0)


# ---------------------------------------------------------------- partition


def test_partition_even():
    shards = partition(100, 10, SeedSpec(2)).shards
    assert [len(s) for s in shards] == [10] * 10
    merged = np.sort(np.concatenate(shards))
    np.testing.assert_array_equal(merged, np.arange(100))


def test_partition_remainder():
    shards = partition(101, 10, SeedSpec(3)).shards
    sizes = sorted(len(s) for s in shards)
    assert sizes == [10] * 9 + [11]
    assert len(np.unique(np.concatenate(shards))) == 101


def test_partition_single_agent_gets_everything():
    shards = partition(37, 1, SeedSpec(4)).shards
    assert len(shards) == 1 and len(shards[0]) == 37


def test_partition_insufficient_data():
    with pytest.raises(InsufficientDataError):
        partition(5, 6, SeedSpec(5))


def test_partition_deterministic():
    a = partition(50, 7, SeedSpec(6)).shards
    b = partition(50, 7, SeedSpec(6)).shards
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


# ------------------------------------------------------------ agent network


def test_fully_connected_shape():
    net = AgentNetwork.fully_connected(4)
    assert net.n_agents == 4
    assert net.agent_ids == (0, 1, 2, 3)
    assert np.array_equal(net.omega, np.ones((4, 4)))


def test_network_rejects_asymmetric():
    omega = np.array([[1, 1], [0, 1]])
    with pytest.raises(InvalidParameterError):
        AgentNetwork(omega=omega, agent_ids=(0, 1))


@pytest.mark.parametrize("omega, agent_ids, message", [
    (np.ones((2, 3)), (0, 1), "omega must be square and match agent_ids"),
    (np.ones((3, 3)), (0, 1), "omega must be square and match agent_ids"),
    (np.array([[1, 2], [2, 1]]), (0, 1), "omega entries must be 0 or 1"),
    (np.full((2, 2), 0.5), (0, 1), "omega entries must be 0 or 1"),
    (np.ones((2, 2)), (4, 4), "agent_ids must be distinct"),
], ids=["not-square", "ids-mismatch", "entry-2", "entry-half", "repeated-id"])
def test_network_rejects_a_malformed_topology(omega, agent_ids, message):
    with pytest.raises(InvalidParameterError, match=message):
        AgentNetwork(omega=omega, agent_ids=agent_ids)


def test_neighborhood_always_contains_self():
    # Omega's diagonal is 0 and agent 2 is isolated; every aggregate still
    # holds the agent's own classifier.  Powers of two sum exactly.
    omega = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    net = AgentNetwork(omega=omega, agent_ids=(7, 3, 5))
    assert sorted_neighborhood(net, 2) == [2]
    assert sorted_neighborhood(net, 0) == [1, 0]
    models = [ClassifierMatrix(weights=np.full((2, 4), 2.0**s), kind="rls") for s in range(3)]
    aggregated, _ = exchange_and_aggregate(net, models, False)
    for p, got in enumerate(aggregated):
        want = sum(models[m].weights for m in sorted_neighborhood(net, p))
        assert np.array_equal(got.weights, want)


# -------------------------------------------------------------- train_local


def test_train_local_identical_shards_identical_models(blobs):
    ds, train_idx, _ = blobs
    proj = init_projection(ds.n_features, PARAMS.dim, SeedSpec(7).child("projection"))
    X = ds.samples[train_idx[:60]]
    y = ds.labels[train_idx[:60]]
    a = train_local(X, y, "rls", proj, PARAMS.kappa, PARAMS.lam, ds.n_classes)
    b = train_local(X, y, "rls", proj, PARAMS.kappa, PARAMS.lam, ds.n_classes)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_train_local_missing_class_is_tolerated(blobs):
    ds, train_idx, _ = blobs
    proj = init_projection(ds.n_features, PARAMS.dim, SeedSpec(8).child("projection"))
    rows = train_idx[ds.labels[train_idx] != 3][:40]  # no class 3 in the shard
    with pytest.warns(UserWarning):
        cen = train_local(
            ds.samples[rows], ds.labels[rows], "centroid", proj,
            PARAMS.kappa, PARAMS.lam, ds.n_classes,
        )
    np.testing.assert_array_equal(cen.weights[2], 0.0)
    rls = train_local(
        ds.samples[rows], ds.labels[rows], "rls", proj,
        PARAMS.kappa, PARAMS.lam, ds.n_classes,
    )
    assert rls.weights.shape == (3, PARAMS.dim)


def test_train_local_empty_shard_rejected(blobs):
    ds, _, _ = blobs
    proj = init_projection(ds.n_features, 16, SeedSpec(9))
    with pytest.raises(DimensionError, match=rf"batch has shape \(0, {ds.n_features}\)"):
        train_local(ds.samples[:0], ds.labels[:0], "rls", proj, 3, 1.0, ds.n_classes)


# ----------------------------------------------------------------- exchange


def _local_models(ds, train_idx, kind, n_agents, seed):
    proj = init_projection(ds.n_features, PARAMS.dim, seed.child("projection"))
    shards = partition(train_idx.size, n_agents, seed.child("shards")).shards
    models = [
        train_local(
            ds.samples[train_idx[s]], ds.labels[train_idx[s]], kind, proj,
            PARAMS.kappa, PARAMS.lam, ds.n_classes,
        )
        for s in shards
    ]
    return proj, shards, models


def test_exchange_single_agent_is_identity(blobs):
    ds, train_idx, _ = blobs
    _, _, models = _local_models(ds, train_idx, "rls", 1, SeedSpec(10))
    agg, payload = exchange_and_aggregate(AgentNetwork.fully_connected(1), models, False)
    np.testing.assert_array_equal(agg[0].weights, models[0].weights)
    assert payload == 3 * PARAMS.dim


def test_exchange_identical_models_scale_only(blobs):
    ds, train_idx, test_idx = blobs
    proj, _, models = _local_models(ds, train_idx, "rls", 1, SeedSpec(11))
    clones = [models[0]] * 5
    agg, _ = exchange_and_aggregate(AgentNetwork.fully_connected(5), clones, False)
    np.testing.assert_allclose(agg[0].weights, 5.0 * models[0].weights, atol=1e-12)
    H = encode_batch(ds.samples[test_idx], proj, PARAMS.kappa)
    np.testing.assert_array_equal(predict_batch(agg[0], H), predict_batch(models[0], H))


def test_exchange_centroid_matches_centralized_exactly(blobs):
    ds, train_idx, test_idx = blobs
    seed = SeedSpec(12)
    proj, _, models = _local_models(ds, train_idx, "centroid", 8, seed)
    agg, _ = exchange_and_aggregate(AgentNetwork.fully_connected(8), models, False)
    H_train = encode_batch(ds.samples[train_idx], proj, PARAMS.kappa)
    central = train_centroids(H_train, ds.labels[train_idx], ds.n_classes)
    for p in range(8):
        np.testing.assert_array_equal(agg[p].weights, central.weights)
        np.testing.assert_array_equal(agg[p].class_sums, central.class_sums)


def test_exchange_order_independent(blobs):
    ds, train_idx, _ = blobs
    _, _, models = _local_models(ds, train_idx, "rls", 6, SeedSpec(13))
    net = AgentNetwork.fully_connected(6)
    agg, _ = exchange_and_aggregate(net, models, False)
    perm = [3, 0, 5, 1, 4, 2]
    net_p = AgentNetwork(np.ones((6, 6), dtype=np.int64), tuple(perm))
    agg_p, _ = exchange_and_aggregate(net_p, [models[p] for p in perm], False)
    # Agent at position i of the permuted run is original agent perm[i]; the
    # fully connected sum must be bitwise identical thanks to sorted-id order.
    for i in range(6):
        np.testing.assert_array_equal(agg_p[i].weights, agg[perm[i]].weights)


def test_exchange_payload_independent_of_shard_size(blobs):
    ds, train_idx, _ = blobs
    proj = init_projection(ds.n_features, PARAMS.dim, SeedSpec(14).child("projection"))
    small = train_local(
        ds.samples[train_idx[:10]], ds.labels[train_idx[:10]], "rls", proj,
        PARAMS.kappa, PARAMS.lam, ds.n_classes,
    )
    big = train_local(
        ds.samples[train_idx], ds.labels[train_idx], "rls", proj,
        PARAMS.kappa, PARAMS.lam, ds.n_classes,
    )
    _, payload = exchange_and_aggregate(AgentNetwork.fully_connected(2), [small, big], False)
    assert payload == ds.n_classes * PARAMS.dim
    _, payload_c = exchange_and_aggregate(AgentNetwork.fully_connected(2), [small, big], True)
    assert payload_c == PARAMS.dim


def test_exchange_compression_ratio_is_class_count(blobs):
    ds, train_idx, _ = blobs
    _, _, models = _local_models(ds, train_idx, "rls", 4, SeedSpec(15))
    _, raw = exchange_and_aggregate(AgentNetwork.fully_connected(4), models, False)
    _, packed = exchange_and_aggregate(AgentNetwork.fully_connected(4), models, True)
    assert raw == ds.n_classes * packed


def test_exchange_respects_topology(blobs):
    ds, train_idx, _ = blobs
    _, _, models = _local_models(ds, train_idx, "rls", 3, SeedSpec(16))
    omega = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])  # 2 is isolated
    net = AgentNetwork(omega=omega, agent_ids=(0, 1, 2))
    agg, _ = exchange_and_aggregate(net, models, False)
    np.testing.assert_allclose(agg[2].weights, models[2].weights, atol=1e-12)
    np.testing.assert_allclose(
        agg[0].weights, models[0].weights + models[1].weights, atol=1e-12
    )


def test_exchange_rejects_inconsistent_shapes(blobs):
    ds, train_idx, _ = blobs
    _, _, models = _local_models(ds, train_idx, "rls", 2, SeedSpec(17))
    other_proj = init_projection(ds.n_features, 40, SeedSpec(18).child("projection"))
    odd = train_local(
        ds.samples[train_idx[:30]], ds.labels[train_idx[:30]], "rls", other_proj,
        PARAMS.kappa, PARAMS.lam, ds.n_classes,
    )
    with pytest.raises(ProtocolError):
        exchange_and_aggregate(AgentNetwork.fully_connected(2), [models[0], odd], False)
    with pytest.raises(ProtocolError):
        exchange_and_aggregate(AgentNetwork.fully_connected(3), models, False)


def test_raw_centroid_exchange_requires_class_sums():
    # Raw centroids are aggregated from their sums; a packed one travels as weights.
    models = [
        ClassifierMatrix(weights=np.eye(2, 16, k=s), kind="centroid") for s in range(2)
    ]
    with pytest.raises(ProtocolError, match="class sums"):
        exchange_and_aggregate(AgentNetwork.fully_connected(2), models, False)
    aggregated, _ = exchange_and_aggregate(AgentNetwork.fully_connected(2), models, True)
    assert [m.kind for m in aggregated] == ["centroid", "centroid"]


# --------------------------------------------------------------- run_version


def test_centralized_equals_local_single_agent(blobs):
    ds, train_idx, test_idx = blobs
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(19))
    central = run_version(shared, ExperimentVersion("centralized"), 1)
    local = run_version(shared, ExperimentVersion("local"), 1, eval_on_full_test=True)
    assert central.mean_accuracy == local.mean_accuracy
    assert central.payload_values_per_producer == 0


def test_distributed_centroid_predicts_like_centralized(blobs):
    ds, train_idx, test_idx = blobs
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(20))
    central = run_version(shared, ExperimentVersion("centralized", classifier_kind="centroid"), 1)
    dist = run_version(
        shared, ExperimentVersion("distributed", classifier_kind="centroid"), 10,
        eval_on_full_test=True,
    )
    np.testing.assert_allclose(dist.per_agent_accuracy, central.mean_accuracy, atol=0)


def test_run_version_deterministic(blobs):
    ds, train_idx, test_idx = blobs
    version = ExperimentVersion("distributed", compression=True)
    a = run_version(SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(21)), version, 5)
    b = run_version(SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(21)), version, 5)
    np.testing.assert_array_equal(a.per_agent_accuracy, b.per_agent_accuracy)
    assert a.payload_values_per_producer == PARAMS.dim


def test_centralized_version_runs_on_one_train_row(blobs):
    ds, train_idx, test_idx = blobs
    shared = SharedPass(ds, train_idx[:1], test_idx, PARAMS, SeedSpec(24))
    (central,) = run_versions(shared, [ExperimentVersion("centralized")], 1)
    assert central.per_agent_accuracy.shape == (1,) and 0.0 <= central.mean_accuracy <= 1.0


def test_run_version_rejects_undersized_data(blobs):
    ds, train_idx, test_idx = blobs
    with pytest.raises(InsufficientDataError):
        run_version(
            SharedPass(ds, train_idx[:3], test_idx, PARAMS, SeedSpec(22)),
            ExperimentVersion("local"), 5,
        )


def test_run_version_rejects_a_network_of_another_size(blobs):
    ds, train_idx, test_idx = blobs
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(23))
    version = ExperimentVersion("distributed")
    with pytest.raises(InvalidParameterError, match="network size must match n_agents") as exc:
        run_version(shared, version, 4, network=AgentNetwork.fully_connected(3))
    assert exc.value.failed_version == version


def test_version_validation():
    with pytest.raises(InvalidParameterError):
        ExperimentVersion("local", compression=True)
    # "no" and 1 are true but not flags: they ran, or wrote, a compressed version.
    for flag in ("no", 1):
        message = f"compression must be a bool, got {flag!r}"
        with pytest.raises(InvalidParameterError, match=message):
            ExperimentVersion("distributed", compression=flag)
    assert type(ExperimentVersion("distributed", compression=np.True_).compression) is bool
    with pytest.raises(InvalidParameterError):
        ExperimentVersion("federated")
    with pytest.raises(InvalidParameterError):
        ExperimentVersion("local", classifier_kind="svm")
