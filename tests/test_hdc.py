"""Hypervector algebra: frozen examples, algebraic laws, seeded statistics."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvnet.classifiers import one_hot, train_centroids
from hvnet.compression import pack, unpack
from hvnet.errors import DimensionError, InvalidParameterError, SingularKeyError
from hvnet.data import normalize, synth_blobs
from hvnet.encoding import encode_batch, init_projection
from hvnet.hdc import (
    SeedSpec,
    check_integers,
    check_labels,
    check_rows,
    check_seed,
    circ_convolve,
    clip,
    inverse,
    random_bipolar,
    random_gaussian_key,
    superpose,
)
from hvnet.network import AgentNetwork, partition
from hvnet.records import ExperimentConfig, ExperimentVersion


def abs_cosine(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return abs(float(x @ y)) / (np.linalg.norm(x) * np.linalg.norm(y))


def direct_convolve(x, y):
    """Independent O(D^2) oracle: z_j = sum_k y_k * x_{(j-k) mod D}."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = len(x)
    z = np.zeros(d)
    for j in range(d):
        for k in range(d):
            z[j] += y[k] * x[(j - k) % d]
    return z


def delta(d):
    out = np.zeros(d)
    out[0] = 1.0
    return out


# ---------------------------------------------------------------- SeedSpec


def test_seedspec_same_labels_same_stream():
    a = SeedSpec(42).child("x", 3).rng().standard_normal(16)
    b = SeedSpec(42).child("x", 3).rng().standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_seedspec_distinct_labels_distinct_streams():
    a = SeedSpec(42).child("x", 0).rng().standard_normal(16)
    b = SeedSpec(42).child("x", 1).rng().standard_normal(16)
    c = SeedSpec(42).child("y", 0).rng().standard_normal(16)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
def test_seedspec_accepts_every_u64_seed(seed):
    check_seed("master_seed", seed)
    assert SeedSpec(seed).child("x").rng().standard_normal(2).shape == (2,)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, True, 1.0, "3", np.int64(-1)])
def test_seedspec_rejects_seeds_outside_u64(seed):
    # Masking to 64 bits would make 2**64 replay seed 0 and -1 replay 2**64 - 1.
    with pytest.raises(InvalidParameterError, match=r"master_seed .* in \[0, 2\*\*64\)"):
        SeedSpec(seed)


def test_experiment_config_rejects_seed_outside_u64():
    version = (ExperimentVersion(kind="local"),)
    with pytest.raises(InvalidParameterError, match="master_seed"):
        ExperimentConfig(dataset="synth", versions=version, master_seed=2**64)


@pytest.mark.parametrize("call", [
    lambda s: init_projection(4, 2.5, s),
    lambda s: init_projection(True, 8, s),
    lambda s: random_bipolar(True, s),
    lambda s: random_gaussian_key(8.0, s),
    lambda s: synth_blobs(3.0, 2, 30, 1.0, s),
    lambda s: synth_blobs(5, 2, 3, 3.0, s),
    lambda s: partition(10, 2.5, s),
    lambda s: partition(10, True, s),
    lambda s: partition(10.0, 2, s),
    lambda s: AgentNetwork.fully_connected(2.5),
], ids=["projection-dim", "projection-features", "bipolar", "gaussian-key",
        "synth-classes", "synth-samples-below-classes", "partition-float", "partition-bool",
        "partition-float-samples", "fully-connected"])
def test_counts_must_be_integers(call):
    with pytest.raises(InvalidParameterError, match="must be an integer >= "):
        call(SeedSpec(0))


# ------------------------------------------------------------ input checks


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.uint8, np.uint64])
def test_check_integers_passes_an_integer_array_as_it_is(dtype):
    values = np.arange(3, dtype=dtype)
    assert check_integers("values", values) is values


@pytest.mark.parametrize("values, dtype", [
    (np.ones(2), "float64"), (np.ones(2, np.float16), "float16"), ([True, False], "bool"),
    (["1", "2"], "<U1"), ([1, None], "object"), (np.ones(2, complex), "complex128"),
], ids=["float64", "float16", "bool", "string", "object", "complex"])
def test_check_integers_rejects_any_other_dtype_by_name(values, dtype):
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"values must be integers, got dtype {dtype}")):
        check_integers("values", values)


def test_check_labels_passes_1_based_labels():
    labels = check_labels([1, 3, 2, 3], 3, rows=4)
    assert labels.tolist() == [1, 3, 2, 3]
    np.testing.assert_array_equal(check_labels(np.array([1, 1], np.uint8), 1), [1, 1])


@pytest.mark.parametrize("labels, rows, error, message", [
    ([[1], [2]], None, DimensionError, r"need some labels in a 1-D array, got \(2, 1\)"),
    ([], None, DimensionError, r"got \(0,\)"),
    (1, None, DimensionError, r"got \(\)"),
    ([1, 2], 3, DimensionError, r"need 3 labels in a 1-D array, got \(2,\)"),
    ([1, 1.5], None, InvalidParameterError, "labels must be integers, got dtype float64"),
    ([True, True], None, InvalidParameterError, "labels must be integers, got dtype bool"),
    (["1", "2"], 2, InvalidParameterError, "labels must be integers, got dtype <U1"),
    ([0, 1], None, InvalidParameterError, r"labels must lie in 1\.\.n_classes"),
    ([1, 3], 2, InvalidParameterError, r"labels must lie in 1\.\.n_classes"),
], ids=["column", "empty", "scalar", "row-count", "fraction", "bool", "string", "zero", "above"])
def test_check_labels_rejects_what_is_not_one_class_per_row(labels, rows, error, message):
    with pytest.raises(error, match=message):
        check_labels(labels, 2, rows)


def test_check_rows_passes_each_set_as_an_integer_array():
    shard = np.array([2, 0], np.int32)
    sets = check_rows("rows", (s for s in [shard, [1, 1]]), 3)
    assert sets[0] is shard and sets[1].dtype.kind == "i" and sets[1].tolist() == [1, 1]


@pytest.mark.parametrize("row_sets, error, message", [
    ([], DimensionError, r"rows must be non-empty 1-D arrays, got shapes \[\]"),
    ([[0], []], DimensionError, r"rows must be non-empty 1-D arrays, got shapes \[\(1,\), \(0,"),
    ([np.array([[0, 1]])], DimensionError, r"non-empty 1-D arrays, got shapes \[\(1, 2\)\]"),
    ([[[0, 1], [2]]], DimensionError, "rows must be a regular array, got ragged lists"),
    ([np.array([0.0, 1.0])], InvalidParameterError, "rows must be integers, got dtype float64"),
    ([[0], [0, True]], InvalidParameterError, "rows must be integers, got a bool"),
    ([np.array([True, False])], InvalidParameterError, "rows must be integers, got dtype bool"),
    ([np.array([1]), np.array([-1, 2])], InvalidParameterError, r"rows must lie in 0\.\.2"),
    ([np.array([0, 3])], InvalidParameterError, r"rows must lie in 0\.\.2"),
], ids=["no-sets", "empty", "2-D", "ragged", "float", "bool-in-list", "bool-mask", "negative",
        "above"])
def test_check_rows_rejects_what_is_not_a_set_of_row_indices(row_sets, error, message):
    # Shape and count faults are DimensionErrors, dtype and range faults InvalidParameterErrors.
    with pytest.raises(error, match=message):
        check_rows("rows", row_sets, 3)


_RAGGED = [[0, 1], [2]]


@pytest.mark.parametrize("call", [
    lambda: one_hot([1, [2]], 2),
    lambda: clip(_RAGGED, 1),
    lambda: circ_convolve(_RAGGED, np.ones(2)),
    lambda: superpose([_RAGGED]),
    lambda: encode_batch(_RAGGED, init_projection(2, 8, SeedSpec(0)), 1),
    lambda: train_centroids(_RAGGED, [1, 2], 2),
    lambda: normalize(synth_blobs(2, 2, 4, 1.0, SeedSpec(0)), _RAGGED),
], ids=["one_hot", "clip", "circ_convolve", "superpose", "encode_batch", "train_centroids",
        "normalize"])
def test_ragged_lists_are_shape_faults(call):
    # numpy raised its own ValueError for each; the one conversion in hdc makes it typed.
    with pytest.raises(DimensionError, match="must be a regular array, got ragged lists"):
        call()


# -------------------------------------------------------------------- clip


def test_clip_case_split():
    np.testing.assert_array_equal(clip(np.array([5, -5, 2]), 3), [3, -3, 2])


def test_clip_boundary_is_saturated_value():
    np.testing.assert_array_equal(clip(np.array([-3, 3]), 3), [-3, 3])


def test_clip_identity_when_range_uncontacted():
    v = np.array([4, -2, 0, 7])
    np.testing.assert_array_equal(clip(v, int(np.abs(v).max()) + 1), v)


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=30),
    st.integers(1, 20),
)
@settings(deadline=None, max_examples=50)
def test_clip_idempotent(values, kappa):
    v = np.array(values)
    once = clip(v, kappa)
    np.testing.assert_array_equal(clip(once, kappa), once)
    assert np.abs(once).max() <= kappa


@pytest.mark.parametrize("kappa", [0, -1, 0.5, True])
def test_clip_rejects_bad_kappa(kappa):
    with pytest.raises(InvalidParameterError):
        clip(np.array([1]), kappa)


# --------------------------------------------------------------- superpose


def test_superpose_adds():
    np.testing.assert_array_equal(superpose([np.array([1, 2]), np.array([3, 4])]), [4, 6])


def test_superpose_single_identity():
    v = np.array([5, -2, 0])
    np.testing.assert_array_equal(superpose([v]), v)


def test_superpose_cancellation():
    np.testing.assert_array_equal(
        superpose([np.array([1, 1]), np.array([-1, -1])]), [0, 0]
    )


def test_superpose_no_int8_overflow():
    vs = [np.full(4, 1, dtype=np.int8) for _ in range(300)]
    out = superpose(vs)
    np.testing.assert_array_equal(out, np.full(4, 300))


@pytest.mark.parametrize("call", [
    lambda: superpose([np.ones(3), np.ones(0)]),
    lambda: clip(np.zeros((2, 0), np.int8), 1),
    lambda: circ_convolve(np.ones(0), np.ones(0)),
    lambda: inverse(np.float64(1.0)),
], ids=["superpose", "clip", "circ_convolve", "inverse"])
def test_empty_or_scalar_hypervectors_are_rejected(call):
    with pytest.raises(DimensionError, match="must be a non-empty array, got shape"):
        call()


@pytest.mark.parametrize("values", [
    np.array(["1", "0"]), np.array([1, None], dtype=object), np.array([1j, 0]),
], ids=["str", "object", "complex"])
def test_the_float_algebra_takes_real_numbers_only(values):
    # numpy parsed strings as numbers, turned None into NaN and dropped the
    # imaginary part, or raised its own ValueError or TypeError.
    message = f"must be real numbers, got dtype {re.escape(str(values.dtype))}"
    # One producer's classifier of one class, and its key: (1, 1, 2) stacks.
    ones, keys = np.ones(2), random_gaussian_key(2, SeedSpec(0))[None, None]
    for call in (
        lambda: circ_convolve(values, ones),
        lambda: circ_convolve(ones, values),
        lambda: inverse(values),
        lambda: superpose([values, ones]),
        lambda: superpose([ones, values]),
        lambda: pack(values[None, None], keys),
        lambda: pack(ones[None, None], values[None, None]),
        lambda: unpack(values[None], keys, [0]),
        lambda: unpack(ones[None], values[None, None], [0]),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            call()
    # The same calls on real numbers pass.
    assert unpack(pack(ones[None, None], keys), keys, [0]).shape == (1, 1, 2)


def test_superpose_errors():
    with pytest.raises(InvalidParameterError):
        superpose([])
    with pytest.raises(DimensionError):
        superpose([np.ones(3), np.ones(2)])
    with pytest.raises(DimensionError):
        superpose([np.ones((2, 3)), np.ones((3, 3))])
    with pytest.raises(DimensionError):
        superpose([np.ones((2, 3)), np.ones(3)])


def sequential_sum(arrays):
    """A Python loop of ``+=`` from the first array, accumulating int64 or float64."""
    wide = np.int64 if np.issubdtype(arrays[0].dtype, np.integer) else np.float64
    acc = arrays[0].astype(wide)
    for a in arrays[1:]:
        acc += a
    return acc


@pytest.mark.parametrize("dtype", ["int8", "int64", "float64"])
def test_superpose_of_stacks_equals_a_sequential_loop(dtype):
    # Nine (L, d) stacks: int8 sums leave the int8 range, int64 ones need
    # 64 bits, and floats span twelve decades, so the order of a sum shows.
    rng = SeedSpec(7).child("stacks").rng()
    shape = (9, 3, 11)
    if dtype == "float64":
        arrays = list(rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, size=shape))
    else:
        bound = 127 if dtype == "int8" else 2**59
        arrays = list(rng.integers(-bound, bound, size=shape).astype(dtype))
    got, want = superpose(arrays), sequential_sum(arrays)
    assert got.dtype == want.dtype == (np.float64 if dtype == "float64" else np.int64)
    assert np.array_equal(got, want)


# ------------------------------------------------------------ circ_convolve


def test_convolve_three_component_expansion():
    np.testing.assert_allclose(
        circ_convolve([1, 2, 3], [4, 5, 6]), [31, 31, 28], atol=1e-12
    )


def test_convolve_delta_is_identity():
    x = SeedSpec(3).child("x").rng().standard_normal(17)
    np.testing.assert_allclose(circ_convolve(x, delta(17)), x, atol=1e-12)


@pytest.mark.parametrize("dim", [3, 64, 257])
def test_convolve_matches_direct_oracle(dim):
    rng = SeedSpec(4).child("pair", dim).rng()
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    np.testing.assert_allclose(circ_convolve(x, y), direct_convolve(x, y), atol=1e-9)


def test_convolve_commutative():
    rng = SeedSpec(5).rng()
    x, y = rng.standard_normal(64), rng.standard_normal(64)
    np.testing.assert_allclose(circ_convolve(x, y), circ_convolve(y, x), atol=1e-12)


@pytest.mark.parametrize("x_shape, y_shape", [
    ((64,), (64,)),
    ((777,), (3, 777)),  # one packed classifier against its key inverses
    ((10, 1500), (10, 1500)),  # one classifier's rows against their keys
    ((37, 10, 1500), (37, 10, 1500)),  # a stack of classifiers, 4.4 MB spectra
    ((37, 1, 1500), (37, 10, 1500)),  # a stack of packed vectors, broadcast
])
def test_convolve_multiplies_the_spectra_in_operand_order(x_shape, y_shape):
    # numpy's SIMD complex product rounds by operand order, so only
    # spectrum(x) * spectrum(y) on named operands gives these bits.  Most
    # shapes here are above numpy's 256 KiB threshold for reusing a
    # temporary operand as the output.
    rng = SeedSpec(8).rng()
    x = rng.standard_normal(x_shape) * 10.0 ** rng.uniform(-3, 3, size=x_shape)
    y = rng.standard_normal(y_shape) * 10.0 ** rng.uniform(-3, 3, size=y_shape)
    spectrum_x = np.fft.rfft(x)
    spectrum_y = np.fft.rfft(y)
    expected = np.fft.irfft(spectrum_x * spectrum_y, n=x_shape[-1])
    assert np.array_equal(circ_convolve(x, y), expected)


@pytest.mark.parametrize("dim", [3, 64, 1024])
def test_convolve_distributes_over_superpose(dim):
    rng = SeedSpec(6).child("d", dim).rng()
    x, y, z = rng.standard_normal((3, dim))
    lhs = circ_convolve(x, superpose([y, z]))
    rhs = superpose([circ_convolve(x, y), circ_convolve(x, z)])
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_convolve_length_mismatch():
    with pytest.raises(DimensionError):
        circ_convolve(np.ones(4), np.ones(5))


# ----------------------------------------------------------------- inverse


def test_exact_inverse_gives_delta():
    for t in range(5):
        k = random_gaussian_key(128, SeedSpec(7).child("k", t))
        np.testing.assert_allclose(
            circ_convolve(k, inverse(k)), delta(128), atol=1e-9
        )


def test_exact_inverse_singular_key():
    # All-ones has zero spectral components at every nonzero frequency.
    with pytest.raises(SingularKeyError):
        inverse(np.ones(8))


# ---------------------------------------------------------- random vectors


def test_random_bipolar_deterministic_and_bipolar():
    a = random_bipolar(512, SeedSpec(9).child("v"))
    b = random_bipolar(512, SeedSpec(9).child("v"))
    np.testing.assert_array_equal(a, b)
    assert set(np.unique(a)) <= {-1, 1}


def test_random_bipolar_pairs_nearly_orthogonal():
    sims = []
    for t in range(100):
        x = random_bipolar(1000, SeedSpec(10).child("x", t))
        y = random_bipolar(1000, SeedSpec(10).child("y", t))
        sims.append(abs_cosine(x, y))
    assert float(np.mean(sims)) < 0.05


def test_random_bipolar_entry_mean_near_zero():
    v = random_bipolar(10000, SeedSpec(11))
    assert abs(float(np.mean(v))) < 0.03


def test_random_bipolar_rejects_bad_dim():
    with pytest.raises(InvalidParameterError):
        random_bipolar(0, SeedSpec(0))


def test_gaussian_key_deterministic():
    a = random_gaussian_key(256, SeedSpec(12).child("k"))
    b = random_gaussian_key(256, SeedSpec(12).child("k"))
    np.testing.assert_array_equal(a, b)


def test_gaussian_key_norm_concentrates_near_one():
    for t in range(10):
        k = random_gaussian_key(1024, SeedSpec(13).child("k", t))
        assert 0.8 < float(np.linalg.norm(k)) < 1.2


def test_gaussian_keys_from_different_streams_decorrelated():
    a = random_gaussian_key(1024, SeedSpec(14).child("k", 0))
    b = random_gaussian_key(1024, SeedSpec(14).child("k", 1))
    assert abs_cosine(a, b) < 0.15
