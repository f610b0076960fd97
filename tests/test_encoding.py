"""Thermometer codes, the fixed projection, and hidden-layer encoding."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvnet.encoding
from hvnet.encoding import (
    ENCODE_BLOCK,
    InputProjection,
    encode_batch,
    encode_batch_sums,
    init_projection,
)
from hvnet.errors import DimensionError, InvalidParameterError
from hvnet.hdc import SeedSpec, clip
from oracle import encode_rows, thermometer


def codes(values, dim):
    """encode_batch_sums of one feature whose column is all +1: the thermometer code of each value."""
    proj = InputProjection(columns=np.ones((dim, 1), dtype=np.int8), seed=SeedSpec(0))
    return encode_batch_sums(np.asarray(values, dtype=np.float64)[:, None], proj)


def test_thermometer_endpoints():
    np.testing.assert_array_equal(codes([0.0, 1.0], 4), [[-1, -1, -1, -1], [1, 1, 1, 1]])


def test_thermometer_half():
    # round(0.5 * 4) = 2 leading +1 entries
    np.testing.assert_array_equal(codes([0.5], 4), [[1, 1, -1, -1]])


def test_thermometer_rounds_half_up():
    # 0.375 * 4 = 1.5 and 0.3 * 5 = 1.5, which round up to a prefix of 2
    np.testing.assert_array_equal(codes([0.375], 4), [[1, 1, -1, -1]])
    np.testing.assert_array_equal(codes([0.3], 5), [[1, 1, -1, -1, -1]])
    np.testing.assert_array_equal(thermometer(0.375, 4), [1, 1, -1, -1])


@given(st.floats(0, 1), st.floats(0, 1))
@settings(deadline=None, max_examples=60)
def test_thermometer_monotone(v1, v2):
    a, b = codes(sorted([v1, v2]), 16)
    assert np.all(a <= b)


def test_thermometer_range_error():
    with pytest.raises(InvalidParameterError, match=r"must lie in \[0, 1\]"):
        codes([0.5, 1.2], 4)
    with pytest.raises(InvalidParameterError, match=r"must lie in \[0, 1\]"):
        codes([-0.1, 0.5], 4)


def test_init_projection_deterministic():
    a = init_projection(5, 64, SeedSpec(3))
    b = init_projection(5, 64, SeedSpec(3))
    np.testing.assert_array_equal(a.columns, b.columns)
    assert a.columns.shape == (64, 5)
    assert set(np.unique(a.columns)) <= {-1, 1}


def test_init_projection_master_seeds_differ():
    a = init_projection(4, 128, SeedSpec(0))
    b = init_projection(4, 128, SeedSpec(1))
    assert np.any(a.columns != b.columns)


def test_encode_hand_case():
    # dim=3, two features. Column 1 = [1,1,1], column 2 = [1,-1,-1].
    # x = (2/3, 1/3) gives thermometer prefixes (2, 1):
    #   F1 = [1,1,-1], F2 = [1,-1,-1]
    #   col1*F1 = [1,1,-1]; col2*F2 = [1,1,1]; sum = [2,2,0]; clip at 1 -> [1,1,0]
    proj = InputProjection(
        columns=np.array([[1, 1], [1, -1], [1, -1]], dtype=np.int8), seed=SeedSpec(0)
    )
    X = np.array([[2 / 3, 1 / 3]])
    np.testing.assert_array_equal(encode_batch(X, proj, kappa=1), [[1, 1, 0]])
    np.testing.assert_array_equal(encode_rows(X, proj.columns, kappa=1), [[1, 1, 0]])


def test_encode_single_feature_is_bipolar():
    proj = init_projection(1, 32, SeedSpec(4))
    H = encode_batch(np.array([[0.7], [0.0], [0.5]]), proj, kappa=1)
    assert set(np.unique(H)) <= {-1, 1}


def test_clipping_inactive_when_kappa_at_least_n_features():
    proj = init_projection(6, 40, SeedSpec(5))
    X = SeedSpec(6).rng().uniform(size=(4, 6))
    unclipped = encode_batch_sums(X, proj)
    np.testing.assert_array_equal(encode_batch(X, proj, kappa=6), unclipped)
    assert np.abs(unclipped).max() <= 6


def test_encoding_deterministic_and_integer():
    proj = init_projection(3, 50, SeedSpec(7))
    X = np.array([[0.1, 0.5, 0.9]])
    h1 = encode_batch(X, proj, kappa=3)
    h2 = encode_batch(X, proj, kappa=3)
    np.testing.assert_array_equal(h1, h2)
    assert np.issubdtype(h1.dtype, np.integer)
    assert np.abs(h1).max() <= 3


def test_locality_of_single_feature_change():
    # Changing only feature j moves the activation exactly where that
    # feature's thermometer code changed, signed by column j.
    proj = init_projection(4, 30, SeedSpec(8))
    x1 = np.array([0.3, 0.5, 0.2, 0.8])
    x2 = x1.copy()
    x2[1] = 0.9
    j = 1
    f1 = thermometer(x1[j], proj.dim)
    f2 = thermometer(x2[j], proj.dim)
    expected_diff = proj.columns[:, j] * (f2 - f1)
    sums = encode_batch_sums(np.stack([x1, x2]), proj).astype(np.int64)
    diff = sums[1] - sums[0]
    np.testing.assert_array_equal(diff, expected_diff)


def test_encode_dimension_mismatch():
    proj = init_projection(3, 20, SeedSpec(9))
    with pytest.raises(DimensionError):
        encode_batch(np.array([[0.1, 0.2]]), proj, kappa=2)
    with pytest.raises(DimensionError):
        encode_batch(np.array([0.1, 0.2, 0.3]), proj, kappa=2)


def test_encode_batch_matches_the_oracle_per_sample():
    proj = init_projection(5, 64, SeedSpec(10))
    X = SeedSpec(11).rng().uniform(size=(20, 5))
    np.testing.assert_array_equal(encode_batch_sums(X, proj), encode_rows(X, proj.columns))
    np.testing.assert_array_equal(encode_batch(X, proj, kappa=3),
                                  encode_rows(X, proj.columns, kappa=3))


def test_encode_batch_rejects_bad_kappa(monkeypatch):
    # kappa is checked before anything is encoded.
    encoded = []
    monkeypatch.setattr(hvnet.encoding, "encode_batch_sums", lambda *a: encoded.append(a))
    proj = init_projection(2, 8, SeedSpec(12))
    with pytest.raises(InvalidParameterError):
        encode_batch(np.zeros((3, 2)), proj, kappa=0)
    assert encoded == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite_values(bad):
    proj = init_projection(2, 8, SeedSpec(13))
    with pytest.raises(InvalidParameterError):
        encode_batch(np.array([[0.5, 0.5], [bad, 0.5]]), proj, kappa=1)


# ------------------------------------------------ narrow kernel against int64


@st.composite
def batches(draw):
    rows = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 8))
    # 0, 1 and the exact half-levels (k + 0.5) / dim, where rounding decides.
    levels = st.sampled_from([0.0, 1.0] + [(k + 0.5) / dim for k in range(dim)])
    value = st.one_of(levels, st.floats(0, 1))
    X = np.array(draw(st.lists(value, min_size=rows * n_features, max_size=rows * n_features)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=dim * n_features,
                          max_size=dim * n_features))
    columns = np.array(signs, dtype=np.int8).reshape(dim, n_features)
    return X.reshape(rows, n_features), columns


@given(batches())
@settings(deadline=None, max_examples=150)
def test_encode_batch_sums_equals_int64_definition(batch):
    X, columns = batch
    proj = InputProjection(columns=columns, seed=SeedSpec(0))
    sums = encode_batch_sums(X, proj)
    assert sums.dtype == np.int8
    np.testing.assert_array_equal(sums, encode_rows(X, columns))


def test_encode_batch_sums_widens_past_int16():
    # 32768 features, all 1.0 in row 0, and every column +1 at position 0:
    # that sum is +32768, which int16 cannot hold.
    n_features, dim = 32768, 6
    columns = np.ones((dim, n_features), dtype=np.int8)
    columns[:, ::3] = -1
    columns[0] = 1
    X = SeedSpec(14).rng().uniform(size=(3, n_features))
    X[0] = 1.0
    proj = InputProjection(columns=columns, seed=SeedSpec(0))
    sums = encode_batch_sums(X, proj)
    assert sums.dtype == np.int32
    assert sums[0, 0] == n_features
    np.testing.assert_array_equal(sums, encode_rows(X, columns))


def level_batch(rows, dim):
    """Random columns, and values at random code levels of ``dim``, with levels 0 and dim present."""
    rng = SeedSpec(15).child("levels", dim).rng()
    levels = rng.integers(0, dim + 1, size=(rows, 4))
    levels[0], levels[-1] = 0, dim
    columns = rng.choice(np.array([-1, 1], dtype=np.int8), size=(dim, 4))
    return levels / dim, columns


@pytest.mark.parametrize("X, columns", [
    # 500 rows over 17 levels: every level is shared by many rows.
    level_batch(500, 16),
    # One row against 1501 levels: the kernel binds only the level in use.
    level_batch(1, 1500),
    # Every row at one level in every feature.
    (np.full((40, 3), 0.25), np.array([[1, -1, 1], [-1, -1, 1], [1, 1, -1], [-1, 1, 1]],
                                      dtype=np.int8)),
], ids=["rows-share-levels", "fewer-rows-than-levels", "all-equal-columns"])
def test_encode_batch_sums_binds_shared_and_sparse_levels_exactly(X, columns):
    proj = InputProjection(columns=columns, seed=SeedSpec(0))
    sums = encode_batch_sums(X, proj)
    assert sums.dtype == np.int8
    np.testing.assert_array_equal(sums, encode_rows(X, columns))


def extreme_batch(rows, n_features, dim=24):
    """Random values with the last row at 0.0 and row 0 at 1.0, and every column +1 at position 0.

    So sums[0, 0] is +n_features and, below row 0, sums[-1, 0] is -n_features.
    """
    rng = SeedSpec(17).child("extreme", rows * 1000 + n_features).rng()
    X = rng.uniform(size=(rows, n_features))
    X[-1] = 0.0
    X[0] = 1.0
    columns = rng.choice(np.array([-1, 1], dtype=np.int8), size=(dim, n_features))
    columns[0] = 1
    return X, columns


@pytest.mark.parametrize("rows", [1, ENCODE_BLOCK - 1, ENCODE_BLOCK, ENCODE_BLOCK + 1])
@pytest.mark.parametrize("n_features, dtype", [(1, np.int8), (127, np.int8), (128, np.int16)])
def test_narrow_sums_equal_the_int64_definition_bit_for_bit(n_features, dtype, rows):
    # int8 holds the sums of up to 127 features; 128 take int16.  Row counts
    # straddle the block the kernel gathers at once.
    X, columns = extreme_batch(rows, n_features)
    sums = encode_batch_sums(X, InputProjection(columns=columns, seed=SeedSpec(0)))
    assert sums.dtype == dtype
    assert sums[0, 0] == n_features
    np.testing.assert_array_equal(sums, encode_rows(X, columns))


@pytest.mark.parametrize("kappa, in_place", [(1, True), (127, True), (128, False)])
def test_encode_batch_equals_clipped_int64_sums_bit_for_bit(kappa, in_place, monkeypatch):
    # 127 features give int8 sums, which encode_batch clips in place while
    # kappa <= 127; at kappa = 128 the int16 activations are a new array.
    X, columns = extreme_batch(ENCODE_BLOCK + 1, 127)
    proj = InputProjection(columns=columns, seed=SeedSpec(0))
    made = []

    def recorded_sums(*args):
        made.append(encode_batch_sums(*args))
        return made[-1]

    monkeypatch.setattr(hvnet.encoding, "encode_batch_sums", recorded_sums)
    H = encode_batch(X, proj, kappa)
    assert (H is made[0]) == in_place
    assert H.dtype == clip(np.zeros(1, dtype=np.int64), kappa).dtype
    np.testing.assert_array_equal(H, encode_rows(X, columns, kappa))


def test_encode_batch_holds_little_beside_its_output():
    # 5400 rows x 10 features at dim 500: a 2.6 MiB int8 output, and no
    # full-size int16 sums or gather temporary beside it.
    proj = init_projection(10, 500, SeedSpec(18))
    X = SeedSpec(19).rng().uniform(size=(5400, 10))
    encode_batch(X, proj, 7)  # any first-call allocations
    tracemalloc.start()
    try:
        H = encode_batch(X, proj, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * H.nbytes


@pytest.mark.parametrize("kappa, dtype", [
    (1, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
])
def test_clip_returns_narrowest_type_holding_kappa(kappa, dtype):
    v = np.array([[kappa, -kappa, kappa + 1, -kappa - 1, 0]], dtype=np.int64)
    out = clip(v, kappa)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, [[kappa, -kappa, kappa, -kappa, 0]])


@pytest.mark.parametrize("dtype, kappa, in_place", [
    (np.int8, 3, True), (np.int16, 300, True), (np.int16, 3, False), (np.int8, 300, False),
])
def test_clip_overwrites_only_input_of_its_output_type(dtype, kappa, in_place):
    v = np.array([[-5, 100, 2], [127, -128, 0]]).astype(dtype)
    want = clip(v, kappa)
    before = v.copy()
    out = clip(v, kappa, overwrite=True)
    assert (out is v) == in_place
    np.testing.assert_array_equal(out, want)
    assert out.dtype == want.dtype
    if not in_place:
        np.testing.assert_array_equal(v, before)


@pytest.mark.parametrize("overwrite", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
def test_clip_rejects_input_that_is_not_integer(dtype, overwrite):
    v = np.array([-2.5, 0.25, 2.5]).astype(dtype)
    before = v.copy()
    with pytest.raises(InvalidParameterError, match=f"clip takes integers, got dtype {v.dtype}"):
        clip(v, 1, overwrite=overwrite)
    np.testing.assert_array_equal(v, before)


def test_encode_batch_returns_int8_at_reference_kappa():
    proj = init_projection(4, 32, SeedSpec(15))
    X = SeedSpec(16).rng().uniform(size=(5, 4))
    H = encode_batch(X, proj, kappa=7)
    assert H.dtype == np.int8
    np.testing.assert_array_equal(H, encode_rows(X, proj.columns, 7))
