"""Output-layer training: least squares against an elimination oracle, centroids, prediction."""

import numpy as np
import pytest

from hvnet.classifiers import (
    PREDICT_BLOCK,
    evaluate,
    finalize_centroids,
    one_hot,
    predict,
    predict_batch,
    rls_from_gram,
    train_centroids,
    train_rls,
)
from hvnet.errors import (
    DimensionError,
    EmptyClassWarning,
    InvalidParameterError,
    SingularSystemError,
)
from hvnet.hdc import SeedSpec


def gauss_solve(A, B):
    """Independent oracle: Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=np.float64)
    B = np.array(B, dtype=np.float64)
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            B[[col, pivot]] = B[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            B[row] -= factor * B[col]
    X = np.zeros_like(B)
    for row in range(n - 1, -1, -1):
        X[row] = (B[row] - A[row, row + 1 :] @ X[row + 1 :]) / A[row, row]
    return X


def rls_oracle(H, Y, lam):
    """Literal normal-equations solution via the elimination oracle."""
    H = np.asarray(H, dtype=np.float64)
    A = H.T @ H + lam * np.eye(H.shape[1])
    return gauss_solve(A, H.T @ Y).T


def ridge_loss(weights, H, Y, lam):
    resid = H @ weights.T - Y
    return float(np.sum(resid**2) + lam * np.sum(weights**2))


# ----------------------------------------------------------------- one_hot


def test_one_hot_rows():
    Y = one_hot([1, 3, 2], 3)
    np.testing.assert_array_equal(Y, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert np.all(Y.sum(axis=1) == 1)


def test_one_hot_rejects_out_of_range():
    with pytest.raises(InvalidParameterError):
        one_hot([0, 1], 2)
    with pytest.raises(InvalidParameterError):
        one_hot([1, 3], 2)


# ----------------------------------------------------------- least squares


def test_rls_identity_unregularized():
    model = train_rls(np.eye(2), np.eye(2), 0.0)
    np.testing.assert_allclose(model.weights, np.eye(2), atol=1e-12)


def test_rls_identity_with_unit_ridge():
    model = train_rls(np.eye(2), np.eye(2), 1.0)
    np.testing.assert_allclose(model.weights, 0.5 * np.eye(2), atol=1e-12)


def test_rls_matches_elimination_oracle():
    rng = SeedSpec(20).rng()
    H = rng.standard_normal((50, 10))
    Y = one_hot(rng.integers(1, 4, size=50), 3)
    model = train_rls(H, Y, 0.25)
    np.testing.assert_allclose(model.weights, rls_oracle(H, Y, 0.25), atol=1e-6)


def test_rls_dual_branch_matches_oracle():
    # Fewer samples than hidden units exercises the dual form.
    rng = SeedSpec(21).rng()
    H = rng.standard_normal((8, 24))
    Y = one_hot(rng.integers(1, 3, size=8), 2)
    model = train_rls(H, Y, 0.5)
    np.testing.assert_allclose(model.weights, rls_oracle(H, Y, 0.5), atol=1e-6)


def test_rls_from_gram_matches_and_preserves_inputs():
    rng = SeedSpec(22).rng()
    H = rng.standard_normal((30, 6))
    Y = one_hot(rng.integers(1, 3, size=30), 2)
    gram = H.T @ H
    gram_copy = gram.copy()
    cross = H.T @ Y
    model = rls_from_gram(gram, cross, 0.1)
    np.testing.assert_allclose(model.weights, rls_oracle(H, Y, 0.1), atol=1e-8)
    np.testing.assert_array_equal(gram, gram_copy)


def test_rls_singular_without_ridge():
    H = np.ones((3, 5))  # rank one
    Y = one_hot([1, 2, 1], 2)
    with pytest.raises(SingularSystemError):
        train_rls(H, Y, 0.0)


def test_rls_rejects_negative_lambda():
    with pytest.raises(InvalidParameterError):
        train_rls(np.eye(2), np.eye(2), -0.1)


def test_rls_row_count_mismatch():
    with pytest.raises(DimensionError):
        train_rls(np.eye(3), np.eye(2), 1.0)


def test_rls_is_loss_minimizer():
    rng = SeedSpec(23).rng()
    H = rng.standard_normal((40, 12))
    Y = one_hot(rng.integers(1, 4, size=40), 3)
    lam = 0.3
    model = train_rls(H, Y, lam)
    base = ridge_loss(model.weights, H, Y, lam)
    for t in range(20):
        bump = 1e-3 * rng.standard_normal(model.weights.shape)
        assert ridge_loss(model.weights + bump, H, Y, lam) >= base - 1e-10


def test_rls_shrinks_with_lambda():
    rng = SeedSpec(24).rng()
    H = rng.standard_normal((60, 15))
    Y = one_hot(rng.integers(1, 4, size=60), 3)
    norms = [
        float(np.linalg.norm(train_rls(H, Y, lam).weights))
        for lam in (0.01, 0.1, 1.0, 10.0)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------- centroids


def test_centroid_single_sample():
    model = train_centroids(np.array([[3, 4]]), np.array([1]), 1)
    np.testing.assert_allclose(model.weights[0], [0.6, 0.8], atol=1e-12)
    assert model.class_counts[0] == 1


def test_centroid_two_samples_one_class():
    H = np.array([[1, 1, 0], [1, 0, 1]])
    model = train_centroids(H, np.array([1, 1]), 1)
    np.testing.assert_allclose(model.weights[0], np.array([2, 1, 1]) / np.sqrt(6), atol=1e-12)


def test_centroid_empty_class_is_zero_row():
    with pytest.warns(EmptyClassWarning):
        model = train_centroids(np.array([[1, 2], [2, 1]]), np.array([1, 1]), 3)
    np.testing.assert_array_equal(model.weights[1], [0, 0])
    np.testing.assert_array_equal(model.weights[2], [0, 0])
    assert model.class_counts.tolist() == [2, 0, 0]


def test_centroid_rows_unit_norm():
    rng = SeedSpec(25).rng()
    H = rng.integers(-7, 8, size=(40, 32))
    labels = rng.integers(1, 5, size=40)
    labels[:4] = [1, 2, 3, 4]  # every class populated
    model = train_centroids(H, labels, 4)
    np.testing.assert_allclose(np.linalg.norm(model.weights, axis=1), 1.0, atol=1e-12)
    assert model.class_sums.dtype == np.int64


def test_finalize_centroids_matches_training():
    H = np.array([[2, 0], [0, 2], [2, 2]])
    labels = np.array([1, 1, 2])
    direct = train_centroids(H, labels, 2)
    sums = np.stack([H[:2].sum(axis=0), H[2:].sum(axis=0)])
    rebuilt = finalize_centroids(sums, np.array([2, 1]))
    np.testing.assert_array_equal(direct.weights, rebuilt.weights)


def test_centroid_perfect_on_separated_clusters():
    # Tight clusters around distinct corners: training accuracy must be 1.
    rng = SeedSpec(26).rng()
    centers = np.array([[10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0]])
    labels = np.repeat([1, 2, 3], 30)
    H = centers[labels - 1] + 0.1 * rng.standard_normal((90, 3))
    model = train_centroids(H, labels, 3)
    assert evaluate(model, H, labels) == 1.0


# --------------------------------------------------------------- prediction


def test_predict_identity_weights():
    model = train_rls(np.eye(2), np.eye(2), 0.0)
    assert predict(model, np.array([0.9, 0.1])) == 1


def test_predict_scale_invariance():
    rng = SeedSpec(27).rng()
    model = train_rls(rng.standard_normal((20, 8)), one_hot(rng.integers(1, 4, 20), 3), 0.1)
    from hvnet.classifiers import ClassifierMatrix

    scaled = ClassifierMatrix(weights=7.5 * model.weights, kind="rls")
    for t in range(10):
        h = rng.standard_normal(8)
        assert predict(model, h) == predict(scaled, h) == predict(model, 3.0 * h)


def test_predict_tie_goes_to_lowest_class():
    from hvnet.classifiers import ClassifierMatrix

    model = ClassifierMatrix(weights=np.array([[1.0, 0.0], [1.0, 0.0]]), kind="rls")
    assert predict(model, np.array([1.0, 0.5])) == 1


def test_predict_dimension_mismatch():
    model = train_rls(np.eye(3), one_hot([1, 2, 1], 2), 0.5)
    with pytest.raises(DimensionError):
        predict(model, np.ones(4))


# --------------------------------------------------------------- evaluation


def test_evaluate_perfect_and_single_sample():
    model = train_rls(np.eye(3), np.eye(3), 0.0)
    H = np.eye(3)
    assert evaluate(model, H, [1, 2, 3]) == 1.0
    assert evaluate(model, H[:1], [1]) in (0.0, 1.0)
    assert evaluate(model, H[:1], [2]) == 0.0


def test_evaluate_random_labels_near_chance():
    rng = SeedSpec(28).rng()
    model = train_rls(rng.standard_normal((30, 16)), one_hot(rng.integers(1, 4, 30), 3), 1.0)
    H = rng.standard_normal((3000, 16))
    labels = rng.integers(1, 4, size=3000)  # independent of H: chance level 1/3
    assert abs(evaluate(model, H, labels) - 1 / 3) < 0.05


def test_evaluate_empty_rejected():
    model = train_rls(np.eye(2), np.eye(2), 0.0)
    with pytest.raises(InvalidParameterError):
        evaluate(model, np.zeros((0, 2)), [])


def reference_predict(model, h) -> int:
    """Winner-takes-all from the definition: argmax(weights @ h) + 1."""
    return int(np.argmax(model.weights @ np.asarray(h, dtype=np.float64))) + 1


def test_predict_batch_agrees_with_predict():
    rng = SeedSpec(29).rng()
    model = train_rls(rng.standard_normal((25, 6)), one_hot(rng.integers(1, 3, 25), 2), 0.2)
    H = rng.standard_normal((12, 6))
    expected = [reference_predict(model, h) for h in H]
    np.testing.assert_array_equal(predict_batch(model, H), expected)
    assert [predict(model, h) for h in H] == expected


def test_predict_batch_across_row_blocks():
    # Integer activations spanning several scoring blocks, with all-zero rows
    # (a three-way tie, won by class 1) on both sides of each block boundary.
    rng = SeedSpec(30).rng()
    model = train_rls(rng.standard_normal((40, 9)), one_hot(rng.integers(1, 4, 40), 3), 0.5)
    H = rng.integers(-7, 8, size=(2 * PREDICT_BLOCK + 7, 9))
    H[[0, PREDICT_BLOCK - 1, PREDICT_BLOCK, 2 * PREDICT_BLOCK, -1]] = 0
    got = predict_batch(model, H)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, [reference_predict(model, h) for h in H])
    assert got[PREDICT_BLOCK - 1] == got[PREDICT_BLOCK] == got[-1] == 1


@pytest.mark.parametrize("dim", [12, 400])  # primal and dual ridge solves
def test_int8_activations_train_and_predict_like_int64(dim):
    # 320 rows of +127 in class 1: summed in int8 (or int16) they would wrap.
    rng = SeedSpec(30).rng()
    H8 = np.concatenate([
        np.full((320, dim), 127, dtype=np.int8),
        rng.integers(-127, 128, size=(80, dim), dtype=np.int8),
    ])
    labels = np.concatenate([np.ones(320, dtype=np.int64), rng.integers(2, 4, size=80)])
    H64 = H8.astype(np.int64)

    c8, c64 = train_centroids(H8, labels, 3), train_centroids(H64, labels, 3)
    assert np.all(c8.class_sums[0] == 320 * 127)
    for name in ("class_sums", "class_counts", "weights"):
        assert np.array_equal(getattr(c8, name), getattr(c64, name))

    r8, r64 = train_rls(H8, one_hot(labels, 3), 0.5), train_rls(H64, one_hot(labels, 3), 0.5)
    assert np.array_equal(r8.weights, r64.weights)
    for model in (c64, r64):
        assert np.array_equal(predict_batch(model, H8), predict_batch(model, H64))
