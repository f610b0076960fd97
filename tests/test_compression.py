"""Key generation, pack/unpack round trips, crosstalk statistics."""

import re
import warnings

import numpy as np
import pytest

import hvnet.compression
import hvnet.network
from hvnet.classifiers import ClassifierMatrix
from hvnet.compression import (
    CompressedClassifier,
    KeySet,
    compress,
    decompress,
    generate_keys,
    pack,
    unpack,
)
from hvnet.errors import (
    DimensionError,
    InvalidParameterError,
    KeyCorrelationWarning,
    ProtocolError,
    SingularKeyError,
)
from hvnet.hdc import SeedSpec, circ_convolve, inverse, random_gaussian_key, superpose
from hvnet.network import EXCHANGE_BLOCK, AgentNetwork, exchange_and_aggregate
from topology import ring, sorted_neighborhood


def unit_rows(n_classes, dim, seed):
    rows = SeedSpec(seed).child("rows").rng().standard_normal((n_classes, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def matrix(rows):
    return ClassifierMatrix(weights=np.asarray(rows, dtype=np.float64), kind="rls")


def delta_keyset(n_classes, dim):
    keys = np.zeros((n_classes, dim))
    keys[:, 0] = 1.0
    return KeySet(agent_id=0, keys=keys)


def row_cosines(w, keys):
    """Cosine of each nonzero row of ``w`` with its reconstruction after a compressed round trip."""
    recon = decompress(compress(w, keys), keys).weights
    return np.einsum("ij,ij->i", w.weights, recon) / (
        np.linalg.norm(w.weights, axis=1) * np.linalg.norm(recon, axis=1)
    )


def mean_fidelity(dim, n_classes, trials, seed0):
    vals = []
    for t in range(trials):
        w = matrix(unit_rows(n_classes, dim, seed0 + t))
        keys = generate_keys(t, n_classes, dim)
        vals.append(float(np.mean(row_cosines(w, keys))))
    return float(np.mean(vals))


def abs_cosines(a, b):
    """|cos| between every row of ``a`` and every row of ``b``."""
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    return np.abs(a @ b.T)


# ------------------------------------------------------------------- keys


def test_generate_keys_deterministic():
    a = generate_keys(7, 5, 256)
    b = generate_keys(7, 5, 256)
    np.testing.assert_array_equal(a.keys, b.keys)
    assert a.agent_id == 7 and a.n_classes == 5 and a.dim == 256


def test_keys_across_agents_decorrelated():
    a = generate_keys(0, 4, 1024)
    b = generate_keys(1, 4, 1024)
    assert np.all(abs_cosines(a.keys, b.keys) < 0.2)


def test_keys_within_agent_decorrelated():
    keys = generate_keys(3, 6, 1024)
    assert np.all(abs_cosines(keys.keys, keys.keys)[np.triu_indices(6, k=1)] < 0.2)


def test_a_correlated_key_set_warns(monkeypatch):
    # Seeded keys of 512 components stay far below the bound, so every class
    # here is given one shared key (|cosine| 1); below 512 nothing is checked.
    shared = random_gaussian_key(512, SeedSpec(0))
    monkeypatch.setattr(hvnet.compression, "random_gaussian_key", lambda dim, seed: shared[:dim])
    with pytest.warns(KeyCorrelationWarning, match=r"agent 3 has pairwise \|cosine\| 1\.000"):
        generate_keys(3, 2, 512)
    with warnings.catch_warnings():
        warnings.simplefilter("error", KeyCorrelationWarning)
        generate_keys(3, 2, 511)


def test_single_key_round_trip():
    keys = generate_keys(2, 1, 128)
    w = matrix(unit_rows(1, 128, 40))
    recon = decompress(compress(w, keys), keys)
    np.testing.assert_allclose(recon.weights, w.weights, atol=1e-6)


def test_generate_keys_rejects_bad_params():
    with pytest.raises(InvalidParameterError):
        generate_keys(-1, 2, 16)
    with pytest.raises(InvalidParameterError):
        generate_keys(0, 0, 16)
    with pytest.raises(InvalidParameterError):
        generate_keys(0, 2.0, 16)


def test_generate_keys_rejects_ids_outside_u64():
    # 2**64 would otherwise alias agent 0's seed.
    top = generate_keys(2**64 - 1, 2, 16)
    assert compress(matrix(np.ones((2, 16))), top).agent_id == 2**64 - 1
    for bad in (2**64, 2**64 + 7, True, 1.0):
        with pytest.raises(InvalidParameterError, match="agent_id"):
            generate_keys(bad, 2, 16)


@pytest.mark.parametrize("fields, name", [
    ({"agent_id": -1}, "agent_id"),
    ({"agent_id": 2**64}, "agent_id"),
    ({"n_classes": 0}, "n_classes"),
    ({"w": np.zeros((2, 4))}, "w must be a non-empty 1-D"),
    ({"w": np.zeros(0)}, "w must be a non-empty 1-D"),
    ({"w": [1.0, 2.0, 3.0, 4.0]}, "w must be a non-empty 1-D numpy array, got list"),
], ids=["negative-id", "id-2**64", "no-classes", "2-d", "empty", "list"])
def test_compressed_classifier_rejects_invalid_fields(fields, name):
    # The agent id is the seed of the agent's keys, so it lies in [0, 2**64).
    args = {"w": np.zeros(4), "agent_id": 0, "n_classes": 2, **fields}
    with pytest.raises(InvalidParameterError, match=name):
        CompressedClassifier(**args)


@pytest.mark.parametrize("fields, shape", [
    ({"agent_id": 2**64 - 1}, (2**64 - 1, 2, 4)),
    ({"n_classes": 2**32}, (0, 2**32, 4)),
    ({"w": np.broadcast_to(0.0, (2**32,))}, (0, 2, 2**32)),
], ids=["id-2**64-1", "classes-2**32", "dim-2**32"])
def test_compressed_classifier_has_no_bound_beyond_the_seed_range(fields, shape):
    # Nothing is serialized, so n_classes and dim are not capped at a header's u32.
    c = CompressedClassifier(**{"w": np.zeros(4), "agent_id": 0, "n_classes": 2, **fields})
    assert (c.agent_id, c.n_classes, c.dim) == shape


# --------------------------------------------------------------- compress


def test_compress_delta_key_copies_row():
    w = matrix(unit_rows(1, 64, 41))
    packed = compress(w, delta_keyset(1, 64))
    np.testing.assert_allclose(packed.w, w.weights[0], atol=1e-12)


def test_compress_zero_matrix():
    packed = compress(matrix(np.zeros((4, 32))), generate_keys(0, 4, 32))
    np.testing.assert_allclose(packed.w, 0.0, atol=1e-12)


def test_compress_is_linear():
    keys = generate_keys(5, 3, 128)
    w1 = matrix(unit_rows(3, 128, 42))
    w2 = matrix(unit_rows(3, 128, 43))
    both = matrix(w1.weights + w2.weights)
    np.testing.assert_allclose(
        compress(both, keys).w,
        compress(w1, keys).w + compress(w2, keys).w,
        atol=1e-12,
    )


def test_compress_shape_mismatch():
    with pytest.raises(DimensionError):
        compress(matrix(np.zeros((2, 16))), generate_keys(0, 3, 16))
    with pytest.raises(DimensionError):
        decompress(
            CompressedClassifier(w=np.zeros(16), agent_id=0, n_classes=2),
            generate_keys(0, 2, 32),
        )


@pytest.mark.parametrize("weights, keys", [
    (np.ones((2, 4)), np.ones((3, 4))), (np.ones((2, 4)), np.ones((2, 5))),
    (np.ones((1, 2, 4)), np.ones((2, 4))), (np.ones(4), np.ones(4)),
], ids=["classes", "dim", "stack", "no-class-axis"])
def test_pack_rejects_keys_of_another_shape(weights, keys):
    # Unchecked, numpy broadcast or failed with an untyped ValueError or AxisError.
    with pytest.raises(DimensionError, match=re.escape(f"keys of shape {keys.shape}")):
        pack(weights, keys)


@pytest.mark.parametrize("packed, keys, agent_ids", [
    (np.ones((2, 4)), np.ones((3, 2, 4)), (0, 1)),
    (np.ones(4), np.ones((1, 2, 4)), (0,)),
    (np.ones((1, 4)), np.ones((1, 2, 4)), (0, 1)),
    (np.ones((1, 4)), np.ones((2, 4)), (0,)),
], ids=["key-sets", "1-D", "agent-ids", "no-stack-axis"])
def test_unpack_rejects_stacks_of_another_length(packed, keys, agent_ids):
    # Unchecked, numpy broadcast or raised ValueError or IndexError, and zip
    # dropped the agent ids beyond the hypervectors.
    with pytest.raises(DimensionError, match=r"need \(n, dim\) hypervectors, \(n, n_classes, "
                                             r"dim\) keys and n agent ids, got shapes"):
        unpack(packed, keys, agent_ids)


def test_decompress_rejects_another_agents_keys():
    packed = compress(matrix(unit_rows(2, 32, 49)), generate_keys(1, 2, 32))
    with pytest.raises(ProtocolError, match="agent 1.*agent 2"):
        decompress(packed, generate_keys(2, 2, 32))


def test_payload_is_one_row_regardless_of_classes():
    for n_classes in (1, 10, 50):
        w = matrix(unit_rows(n_classes, 64, 44))
        packed = compress(w, generate_keys(0, n_classes, 64))
        assert packed.w.size == 64
        assert w.weights.size == n_classes * 64


# ------------------------------------------------------------- decompress


def test_decompress_zero_round_trip():
    keys = generate_keys(1, 3, 64)
    recon = decompress(compress(matrix(np.zeros((3, 64))), keys), keys)
    np.testing.assert_allclose(recon.weights, 0.0, atol=1e-12)


def test_crosstalk_is_zero_mean_across_key_sets():
    # Averaging reconstructions of a fixed classifier under independent key
    # sets cancels the crosstalk: entrywise mean error shrinks like the
    # number of sets.
    trials = 32
    dim, n_classes = 1024, 10
    w = matrix(unit_rows(n_classes, dim, 45))
    errors = []
    for t in range(trials):
        keys = generate_keys(t, n_classes, dim)
        recon = decompress(compress(w, keys), keys)
        errors.append(recon.weights[0] - w.weights[0])
    mean_error = np.mean(errors, axis=0)
    assert float(np.max(np.abs(mean_error))) < 3.0 / np.sqrt(trials)


@pytest.mark.parametrize("n_classes, dim", [(1, 64), (2, 150), (3, 777), (10, 1500)])
def test_pack_unpack_match_per_row_loop(n_classes, dim):
    # The row-batched FFTs must give exactly what one FFT per class row gives.
    w = matrix(unit_rows(n_classes, dim, 46))
    keys = generate_keys(9, n_classes, dim)
    packed = compress(w, keys)
    expected = superpose(
        [circ_convolve(keys.keys[i], w.weights[i]) for i in range(n_classes)]
    )
    assert np.array_equal(packed.w, expected)
    rows = [circ_convolve(packed.w, inverse(keys.keys[i])) for i in range(n_classes)]
    assert np.array_equal(decompress(packed, keys).weights, np.stack(rows))


# ------------------------------------------------- batched pack and unpack


def reference_round_trip(weights, agent_id):
    """One agent's compress and decompress, written out as they were before the batched codec."""
    keys = generate_keys(agent_id, *weights.shape).keys
    packed = superpose(circ_convolve(keys, weights))
    return circ_convolve(packed, inverse(keys))


def wide_range_stack(shape, seed):
    """Floats spanning six decades, so that any change in the order of a sum or product shows."""
    rng = SeedSpec(seed).child("stack", shape[-1]).rng()
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape)


IDS = (7, 3, 1000, 2**64 - 1, 0)


@pytest.mark.parametrize("n_classes, dim", [(1, 63), (1, 64), (3, 150), (3, 777), (10, 500), (10, 1501)])
def test_batched_pack_unpack_equal_the_one_agent_codec(n_classes, dim):
    ids = IDS + tuple(range(20, 34))  # 19 agents
    weights = wide_range_stack((len(ids), n_classes, dim), 48)
    keys = np.stack([generate_keys(agent_id, n_classes, dim).keys for agent_id in ids])
    got = unpack(pack(weights, keys), keys, ids)
    want = np.stack([reference_round_trip(w, agent_id) for w, agent_id in zip(weights, ids)])
    assert np.array_equal(got, want)


def reference_exchange(network, classifiers):
    """Each agent's sum of its neighborhood's one-agent round trips, in sorted-agent-id order."""
    received = [
        reference_round_trip(c.weights, agent_id)
        for agent_id, c in zip(network.agent_ids, classifiers)
    ]
    aggregates = []
    for p in range(network.n_agents):
        aggregates.append(superpose(received[m] for m in sorted_neighborhood(network, p)))
    return aggregates


@pytest.mark.parametrize("network, n_classes, dim", [
    (AgentNetwork(np.ones((5, 5), dtype=np.int64), IDS), 3, 64),
    (AgentNetwork.fully_connected(EXCHANGE_BLOCK + 1), 10, 101),
    # Not a multiple of the block, with ids in no particular order.
    (ring([(37 * p) % 41 for p in range(2 * EXCHANGE_BLOCK + 3)]), 3, 150),
    (ring([5, 2**64 - 1, 9]), 1, 32),
], ids=["five-scattered-ids", "one-past-a-block", "ring-35", "ring-3"])
def test_compressed_exchange_equals_the_one_agent_codec(network, n_classes, dim):
    weights = wide_range_stack((network.n_agents, n_classes, dim), 49)
    classifiers = [ClassifierMatrix(weights=w, kind="rls") for w in weights]
    got, payload = exchange_and_aggregate(network, classifiers, compression=True)
    want = reference_exchange(network, classifiers)
    assert payload == dim
    assert all(np.array_equal(g.weights, w) for g, w in zip(got, want))


def test_exchange_names_the_agent_whose_key_is_singular(monkeypatch):
    # An all-ones key's spectrum is zero at every nonzero frequency.
    def keys_with_one_singular(agent_id, n_classes, dim):
        if agent_id == 1000:
            return KeySet(agent_id=agent_id, keys=np.ones((n_classes, dim)))
        return generate_keys(agent_id, n_classes, dim)

    monkeypatch.setattr(hvnet.network, "generate_keys", keys_with_one_singular)
    network = AgentNetwork(np.ones((5, 5), dtype=np.int64), IDS)
    classifiers = [matrix(unit_rows(3, 32, 50 + p)) for p in range(5)]
    with pytest.raises(SingularKeyError, match="agent 1000: key has a near-zero spectral"):
        exchange_and_aggregate(network, classifiers, compression=True)


# ---------------------------------------------------------------- fidelity


def test_fidelity_single_pair_is_one():
    w = matrix(unit_rows(1, 256, 46))
    fid = row_cosines(w, generate_keys(9, 1, 256))
    np.testing.assert_allclose(fid, [1.0], atol=1e-6)


def test_fidelity_decreases_with_class_count():
    # More superposed pairs -> more crosstalk per reconstructed row.
    fids = [mean_fidelity(512, n_classes, trials=8, seed0=100 * n_classes)
            for n_classes in (2, 10, 50)]
    assert fids[0] > fids[1] > fids[2]
    assert fids[0] > 0.3 and fids[2] > 0.0


def test_fidelity_dim_trend_measured():
    # Measured behavior with the exact spectral inverse: per-row cosine does
    # NOT improve with dimensionality at a fixed class count (the packing
    # rate stays n_classes:1, and small spectral components of a key amplify
    # the crosstalk roughly with log(dim)).  Values frozen from the direct
    # Monte-Carlo oracle: approx 0.14 at dim=150, 0.12 at 500, 0.11 at 1500.
    f150 = mean_fidelity(150, 10, trials=20, seed0=300)
    f500 = mean_fidelity(500, 10, trials=20, seed0=400)
    f1500 = mean_fidelity(1500, 10, trials=20, seed0=500)
    assert 0.05 < f1500 < f500 < f150 < 0.25
