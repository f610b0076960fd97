"""Thermometer codes, the fixed projection, and hidden-layer encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvnet.encoding
from hvnet.encoding import (
    InputProjection,
    encode_batch,
    encode_batch_sums,
    encode_sample,
    encode_sums,
    init_projection,
    thermometer_encode,
)
from hvnet.errors import DimensionError, InvalidParameterError
from hvnet.hdc import SeedSpec, clip


def test_thermometer_endpoints():
    np.testing.assert_array_equal(thermometer_encode(0.0, 4), [-1, -1, -1, -1])
    np.testing.assert_array_equal(thermometer_encode(1.0, 4), [1, 1, 1, 1])


def test_thermometer_half():
    # round(0.5 * 4) = 2 leading +1 entries
    np.testing.assert_array_equal(thermometer_encode(0.5, 4), [1, 1, -1, -1])


def test_thermometer_rounds_half_up():
    # 0.375 * 4 = 1.5, which rounds up to a prefix of 2
    np.testing.assert_array_equal(thermometer_encode(0.375, 4), [1, 1, -1, -1])


@given(st.floats(0, 1), st.floats(0, 1))
@settings(deadline=None, max_examples=60)
def test_thermometer_monotone(v1, v2):
    lo, hi = sorted([v1, v2])
    a = thermometer_encode(lo, 16)
    b = thermometer_encode(hi, 16)
    assert np.all(a <= b)


def test_thermometer_range_error():
    with pytest.raises(InvalidParameterError):
        thermometer_encode(1.2, 4)
    with pytest.raises(InvalidParameterError):
        thermometer_encode(-0.1, 4)


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


def test_encode_sample_hand_case():
    # dim=3, two features. Column 1 = [1,1,1], column 2 = [1,-1,-1].
    # x = (2/3, 1/3) gives thermometer prefixes (2, 1):
    #   F1 = [1,1,-1], F2 = [1,-1,-1]
    #   col1*F1 = [1,1,-1]; col2*F2 = [1,1,1]; sum = [2,2,0]; clip at 1 -> [1,1,0]
    proj = InputProjection(
        columns=np.array([[1, 1], [1, -1], [1, -1]], dtype=np.int8), seed=SeedSpec(0)
    )
    h = encode_sample(np.array([2 / 3, 1 / 3]), proj, kappa=1)
    np.testing.assert_array_equal(h, [1, 1, 0])


def test_encode_single_feature_is_bipolar():
    proj = init_projection(1, 32, SeedSpec(4))
    h = encode_sample(np.array([0.7]), proj, kappa=1)
    assert set(np.unique(h)) <= {-1, 1}


def test_clipping_inactive_when_kappa_at_least_n_features():
    proj = init_projection(6, 40, SeedSpec(5))
    x = SeedSpec(6).rng().uniform(size=6)
    unclipped = encode_sums(x, proj)
    np.testing.assert_array_equal(encode_sample(x, proj, kappa=6), unclipped)
    assert np.abs(unclipped).max() <= 6


def test_encoding_deterministic_and_integer():
    proj = init_projection(3, 50, SeedSpec(7))
    x = np.array([0.1, 0.5, 0.9])
    h1 = encode_sample(x, proj, kappa=3)
    h2 = encode_sample(x, proj, kappa=3)
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
    f1 = thermometer_encode(x1[j], proj.dim).astype(np.int64)
    f2 = thermometer_encode(x2[j], proj.dim).astype(np.int64)
    expected_diff = proj.columns[:, j] * (f2 - f1)
    diff = encode_sums(x2, proj) - encode_sums(x1, proj)
    np.testing.assert_array_equal(diff, expected_diff)


def test_encode_dimension_mismatch():
    proj = init_projection(3, 20, SeedSpec(9))
    with pytest.raises(DimensionError):
        encode_sample(np.array([0.1, 0.2]), proj, kappa=2)


def test_encode_batch_matches_per_sample():
    # Reference from the definition, not from the batch kernel that the
    # single-sample functions wrap: sum_j columns[:, j] * thermometer(x_j), clipped.
    proj = init_projection(5, 64, SeedSpec(10))
    X = SeedSpec(11).rng().uniform(size=(20, 5))
    batch = encode_batch(X, proj, kappa=3)
    raw = encode_batch_sums(X, proj)
    for i in range(20):
        sums = np.zeros(proj.dim, dtype=np.int64)
        for j in range(proj.n_features):
            sums += proj.columns[:, j] * thermometer_encode(X[i, j], proj.dim)
        np.testing.assert_array_equal(raw[i], sums)
        np.testing.assert_array_equal(batch[i], np.clip(sums, -3, 3))
        np.testing.assert_array_equal(encode_sample(X[i], proj, kappa=3), batch[i])


def test_encode_batch_rejects_bad_kappa(monkeypatch):
    # kappa is checked before anything is encoded.
    encoded = []
    monkeypatch.setattr(hvnet.encoding, "encode_batch_sums", lambda *a: encoded.append(a))
    proj = init_projection(2, 8, SeedSpec(12))
    with pytest.raises(InvalidParameterError):
        encode_batch(np.zeros((3, 2)), proj, kappa=0)
    with pytest.raises(InvalidParameterError):
        encode_sample(np.zeros(2), proj, kappa=0)
    assert encoded == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite_values(bad):
    proj = init_projection(2, 8, SeedSpec(13))
    with pytest.raises(InvalidParameterError):
        encode_batch(np.array([[0.5, 0.5], [bad, 0.5]]), proj, kappa=1)
    with pytest.raises(InvalidParameterError):
        encode_sample(np.array([0.5, bad]), proj, kappa=1)


# ------------------------------------------------ narrow kernel against int64


def sums_from_definition(X, columns):
    """int64 sum over j of columns[:, j] * thermometer(X[:, j]), written out from the definition."""
    dim, n_features = columns.shape
    out = np.zeros((X.shape[0], dim), dtype=np.int64)
    for j in range(n_features):
        n_plus = np.floor(X[:, j] * dim + 0.5)[:, None]
        out += columns[:, j].astype(np.int64) * np.where(np.arange(dim) < n_plus, 1, -1)
    return out


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
    assert sums.dtype == np.int16
    np.testing.assert_array_equal(sums, sums_from_definition(X, columns))


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
    np.testing.assert_array_equal(sums, sums_from_definition(X, columns))


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
    assert sums.dtype == np.int16
    np.testing.assert_array_equal(sums, sums_from_definition(X, columns))


@pytest.mark.parametrize("kappa, dtype", [
    (1, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
])
def test_clip_returns_narrowest_type_holding_kappa(kappa, dtype):
    v = np.array([[kappa, -kappa, kappa + 1, -kappa - 1, 0]], dtype=np.int64)
    out = clip(v, kappa)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, [[kappa, -kappa, kappa, -kappa, 0]])


def test_clip_keeps_float_dtype():
    out = clip(np.array([-2.5, 0.25, 2.5]), 1)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [-1.0, 0.25, 1.0])


def test_encode_batch_returns_int8_at_reference_kappa():
    proj = init_projection(4, 32, SeedSpec(15))
    X = SeedSpec(16).rng().uniform(size=(5, 4))
    H = encode_batch(X, proj, kappa=7)
    assert H.dtype == np.int8
    np.testing.assert_array_equal(H, np.clip(sums_from_definition(X, proj.columns), -7, 7))
    assert encode_sample(X[0], proj, kappa=7).dtype == np.int8
