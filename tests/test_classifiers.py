"""Output-layer training: least squares against the elimination oracle, centroids, prediction."""

import math
import re
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.linalg import blas, lapack

import hvnet.classifiers
from hvnet.classifiers import (
    GRAM_BLOCK,
    GRAM_PANEL,
    PREDICT_BLOCK,
    ClassifierMatrix,
    _normal_equations,
    _reflect,
    _solve_tridiagonal,
    evaluate,
    evaluate_shards,
    finalize_centroids,
    fit_shards,
    one_hot,
    predict_batch,
    rls_from_gram,
    rls_sweep,
    train_centroids,
    train_rls,
)
from hvnet.errors import (
    DimensionError,
    EmptyClassWarning,
    InvalidParameterError,
    SingularSystemError,
)
from hvnet.hdc import SeedSpec, clip
from hvnet.records import DEFAULT_LAMBDA_GRID
from oracle import predict, ridge


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
    for n_classes in (2.5, True, 1):
        with pytest.raises(InvalidParameterError, match="n_classes must be an integer >= 2"):
            one_hot([1, 2], n_classes)


@pytest.mark.parametrize("labels, dtype", [
    ([1, 1.5, 2], "float64"), ([True, False, True], "bool"), (["1", "2", "1"], "<U1"),
], ids=["fraction", "bool", "string"])
def test_fits_and_scorers_reject_labels_that_are_not_integers(labels, dtype):
    # A cast to int64 would round 1.5 to 1 and read "1" and True as label 1.
    H = np.eye(3, dtype=np.int8)
    model = train_rls(H, np.eye(3)[:, :2], 0.5)
    message = re.escape(f"labels must be integers, got dtype {dtype}")
    for call in (lambda: one_hot(labels, 2), lambda: train_centroids(H, labels, 2),
                 lambda: evaluate(model, H, labels),
                 lambda: evaluate_shards([[model]], H, labels, None)):
        with pytest.raises(InvalidParameterError, match=message):
            call()


@pytest.mark.parametrize("labels, error, message", [
    ([[1], [2], [1], [2]], DimensionError, r"need 4 labels in a 1-D array, got \(4, 1\)"),
    ([1, 2, 1], DimensionError, r"need 4 labels in a 1-D array, got \(3,\)"),
    ([1, 2, 3, 1], InvalidParameterError, r"labels must lie in 1\.\.n_classes"),
    ([0, 1, 2, 1], InvalidParameterError, r"labels must lie in 1\.\.n_classes"),
], ids=["column", "short", "above", "zero"])
def test_scorers_reject_labels_that_are_not_one_class_per_row(labels, error, message):
    # Unchecked, a (4, 1) column broadcasts against the (1, 4) predictions
    # into 16 comparisons, and a label outside the classes scores as a miss.
    H = np.eye(4, dtype=np.int8)[:, :2]
    model = train_rls(H, one_hot([1, 2, 1, 2], 2), 0.5)
    for call in (lambda: evaluate(model, H, labels),
                 lambda: evaluate_shards([[model]], H, labels, None)):
        with pytest.raises(error, match=message):
            call()


def test_scoring_a_one_class_model_stays_legal():
    model = ClassifierMatrix(weights=np.ones((1, 2)), kind="rls")
    assert evaluate(model, np.ones((3, 2), np.int8), [1, 1, 1]) == 1.0


# ----------------------------------------------------------- least squares


def test_rls_identity_unregularized():
    model = train_rls(np.eye(2, dtype=np.int8), np.eye(2), 0.0)
    np.testing.assert_allclose(model.weights, np.eye(2), atol=1e-12)


def test_rls_identity_with_unit_ridge():
    model = train_rls(np.eye(2, dtype=np.int8), np.eye(2), 1.0)
    np.testing.assert_allclose(model.weights, 0.5 * np.eye(2), atol=1e-12)


def test_rls_matches_elimination_oracle():
    rng = SeedSpec(20).rng()
    H = rng.integers(-7, 8, size=(50, 10))
    Y = one_hot(rng.integers(1, 4, size=50), 3)
    model = train_rls(H, Y, 0.25)
    np.testing.assert_allclose(model.weights, ridge(H, Y, 0.25), atol=1e-6)


def test_rls_dual_branch_matches_oracle():
    # Fewer samples than hidden units exercises the dual form.
    rng = SeedSpec(21).rng()
    H = rng.integers(-7, 8, size=(8, 24))
    Y = one_hot(rng.integers(1, 3, size=8), 2)
    model = train_rls(H, Y, 0.5)
    np.testing.assert_allclose(model.weights, ridge(H, Y, 0.5), atol=1e-6)


def inline_dual_rls(H, Y, lam):
    """Reference dual weights: numpy H H^T, +lam on its diagonal, a Cholesky solve S, H^T S."""
    H = np.asarray(H, dtype=np.float64)
    gram = H @ H.T
    gram[np.diag_indices_from(gram)] += lam
    S = sla.cho_solve(sla.cho_factor(gram), Y)
    return (H.T @ S).T


def int8_activations(rng, rows, dim, bound):
    """Activations drawn from [-bound, bound] and clipped at 15, in int8."""
    H = clip(rng.integers(-bound, bound + 1, size=(rows, dim)), 15)
    assert H.dtype == np.int8
    return H


@pytest.mark.parametrize("lam", [2.0**-10, 0.5, 32.0])
@pytest.mark.parametrize("rows, dim", [(1, 40), (30, 200), (199, 200)])
def test_rls_dual_equals_inline_cholesky_bit_for_bit(rows, dim, lam):
    # A one-row H makes the Gram matrix 1 x 1, a dot product: like every
    # entry, an exact integer in any order.
    rng = SeedSpec(29).rng()
    H = int8_activations(rng, rows, dim, 20)
    Y = one_hot(rng.integers(1, 4, size=rows), 3)
    assert np.array_equal(train_rls(H, Y, lam).weights, inline_dual_rls(H, Y, lam))


def inline_primal_rls(H, Y, lam):
    """Reference primal weights: numpy H^T H, +lam on its diagonal, a Cholesky solve of H^T Y."""
    H = np.asarray(H, dtype=np.float64)
    gram = H.T @ H
    gram[np.diag_indices_from(gram)] += lam
    return sla.cho_solve(sla.cho_factor(gram), H.T @ Y).T


@pytest.mark.parametrize("lam", [0.0, 2.0**-10, 32.0])
@pytest.mark.parametrize("rows, dim", [(300, 300), (600, 300), (1500, 750), (300, 1)])
def test_rls_primal_equals_inline_cholesky_bit_for_bit(rows, dim, lam):
    # Integer activations make H^T H and H^T Y exact in any form, so the
    # streamed system gives numpy's bits.
    rng = SeedSpec(30).rng()
    H = int8_activations(rng, rows, dim, 20)
    Y = one_hot(rng.integers(1, 4, size=rows), 3)
    assert np.array_equal(train_rls(H, Y, lam).weights, inline_primal_rls(H, Y, lam))


def test_rls_dual_singular_names_its_lambda():
    # lambda is positive but below the rounding of H H^T, which has rank one.
    H = np.array([[10**8, 0, 0], [10**8, 0, 0]])
    with pytest.raises(SingularSystemError, match=r"lambda=1e-300; use a larger lambda"):
        train_rls(H, one_hot([1, 2], 2), 1e-300)


def test_rls_from_gram_matches_and_preserves_inputs():
    rng = SeedSpec(22).rng()
    H = rng.standard_normal((30, 6))
    Y = one_hot(rng.integers(1, 3, size=30), 2)
    gram = H.T @ H
    gram_copy = gram.copy()
    cross = H.T @ Y
    model = rls_from_gram(gram, cross, 0.1)
    np.testing.assert_allclose(model.weights, ridge(H, Y, 0.1), atol=1e-8)
    np.testing.assert_array_equal(gram, gram_copy)


@pytest.mark.parametrize("layout", ["C", "F", "lower-transposed", "int64"])
def test_rls_from_gram_leaves_the_callers_gram_intact(layout):
    # rls_from_gram factors its one Fortran-ordered copy in place.
    rng = SeedSpec(23).rng()
    H = rng.integers(-7, 8, size=(30, 6))
    Y = one_hot(rng.integers(1, 3, size=30), 2)
    gram = {
        "C": (H.T @ H).astype(np.float64),
        "F": np.asfortranarray(H.T @ H, dtype=np.float64),
        # train_rls hands over the transposed lower triangle of dsyrk's result.
        "lower-transposed": np.tril(H.T @ H).astype(np.float64).T,
        "int64": H.T @ H,
    }[layout]
    before, cross = gram.copy(order="K"), (H.T @ Y).astype(np.float64)
    cross_before = cross.copy()
    model = rls_from_gram(gram, cross, 0.5)
    np.testing.assert_allclose(model.weights, ridge(H, Y, 0.5), atol=1e-10)
    assert gram.dtype == before.dtype and np.array_equal(gram, before)
    assert np.array_equal(cross, cross_before)


def test_rls_from_gram_rejects_a_nan_gram():
    gram = np.eye(3)
    gram[1, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        rls_from_gram(gram, np.eye(3), 1.0)


@pytest.mark.parametrize("gram, cross, error, message", [
    (np.ones((2, 3)), np.ones((2, 1)), DimensionError,
     r"need a non-empty square Gram matrix, got shape \(2, 3\)"),
    (np.ones(3), np.ones((3, 1)), DimensionError, r"square Gram matrix, got shape \(3,\)"),
    (np.zeros((0, 0)), np.zeros((0, 1)), DimensionError, r"square Gram matrix, got shape \(0, 0"),
    (np.eye(3), np.ones((4, 2)), DimensionError, r"need a 2-D cross term of 3 rows, got \(4, 2"),
    (np.eye(3), np.ones(3), DimensionError, r"need a 2-D cross term of 3 rows, got \(3,\)"),
    (np.array([["1"]]), np.ones((1, 1)), InvalidParameterError, "Gram matrix must be real"),
    (np.eye(1), np.array([["1"]]), InvalidParameterError, "cross term must be real"),
], ids=["non-square", "1-D", "empty", "cross-rows", "cross-1-D", "str-gram", "str-cross"])
def test_rls_from_gram_rejects_what_is_not_a_ridge_system(gram, cross, error, message):
    # LAPACK (through f2py) or numpy raised its own ValueError for each.
    with pytest.raises(error, match=message):
        rls_from_gram(gram, cross, 1.0)


def test_a_fractional_lambda_fits_as_its_float_bit_for_bit():
    # check_lambda admitted a Fraction, which numpy then failed to add to a float array.
    rng = SeedSpec(26).rng()
    H, labels = rng.integers(-7, 8, size=(20, 6)), rng.integers(1, 3, size=20)
    Y = one_hot(labels, 2)
    gram, cross = (H.T @ H).astype(np.float64), (H.T @ Y).astype(np.float64)
    for lam, half in [(Fraction(1, 2), 0.5), (np.float32(0.25), 0.25)]:
        assert _bits(train_rls(H, Y, lam).weights) == _bits(train_rls(H, Y, half).weights)
        assert (_bits(fit_shards("rls", H, labels, None, 2, lam)[0].weights)
                == _bits(fit_shards("rls", H, labels, None, 2, half)[0].weights))
        assert _bits(rls_from_gram(gram, cross, lam).weights) == _bits(
            rls_from_gram(gram, cross, half).weights)
        assert _bits(rls_sweep(H, Y, [lam])[0].weights) == _bits(rls_sweep(H, Y, [half])[0].weights)


def test_rls_singular_without_ridge():
    H = np.ones((3, 5), dtype=np.int8)  # rank one
    Y = one_hot([1, 2, 1], 2)
    with pytest.raises(SingularSystemError):
        train_rls(H, Y, 0.0)


def test_rls_rejects_negative_lambda():
    with pytest.raises(InvalidParameterError):
        train_rls(np.eye(2, dtype=np.int8), np.eye(2), -0.1)


def test_rls_row_count_mismatch():
    with pytest.raises(DimensionError):
        train_rls(np.eye(3, dtype=np.int8), np.eye(2), 1.0)


@pytest.mark.parametrize("fit", [train_rls, lambda H, Y, lam: rls_sweep(H, Y, [lam])],
                         ids=["cholesky", "tridiagonal"])
@pytest.mark.parametrize("h_shape, y_shape, lam", [
    ((0, 3), (0, 2), 0.0), ((0, 3), (0, 2), 1.0), ((4, 0), (4, 2), 1.0), ((4, 3), (4, 0), 1.0),
], ids=["no-rows-primal", "no-rows-dual", "no-columns", "no-targets"])
def test_ridge_fits_reject_empty_matrices(fit, h_shape, y_shape, lam):
    # Unchecked, these reach BLAS, which rejects some with a message on stderr.
    faulty, shape = ("activations", h_shape) if 0 in h_shape else ("targets", y_shape)
    with pytest.raises(DimensionError, match=rf"need {faulty} in a 2-D array .*, got shape "
                                             + re.escape(str(shape))):
        fit(np.zeros(h_shape, dtype=np.int8), np.zeros(y_shape), lam)


def test_rls_is_loss_minimizer():
    rng = SeedSpec(23).rng()
    H = rng.integers(-7, 8, size=(40, 12))
    Y = one_hot(rng.integers(1, 4, size=40), 3)
    lam = 0.3
    model = train_rls(H, Y, lam)
    base = ridge_loss(model.weights, H, Y, lam)
    for t in range(20):
        bump = 1e-3 * rng.standard_normal(model.weights.shape)
        assert ridge_loss(model.weights + bump, H, Y, lam) >= base - 1e-10


def test_rls_shrinks_with_lambda():
    rng = SeedSpec(24).rng()
    H = rng.integers(-7, 8, size=(60, 15))
    Y = one_hot(rng.integers(1, 4, size=60), 3)
    norms = [
        float(np.linalg.norm(train_rls(H, Y, lam).weights))
        for lam in (0.01, 0.1, 1.0, 10.0)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("fit", [
    lambda lam: train_rls(np.eye(2, dtype=np.int8), np.eye(2), lam),
    lambda lam: rls_from_gram(np.eye(2), np.eye(2), lam),
    lambda lam: rls_sweep(np.eye(2, dtype=np.int8), np.eye(2), [1.0, lam]),
], ids=["train_rls", "rls_from_gram", "rls_sweep"])
@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -0.1, True, "1",
                                 pytest.param(10**400, id="beyond-float")])
def test_ridge_fits_reject_invalid_lambda(fit, lam):
    # NaN fails both lam < 0 and lam > 0, so without the check it would be
    # solved as lambda = 0.
    with pytest.raises(InvalidParameterError, match="lambda"):
        fit(lam)


def test_rls_sweep_rejects_empty_lambdas():
    with pytest.raises(InvalidParameterError, match="lambda"):
        rls_sweep(np.eye(2, dtype=np.int8), np.eye(2), [])


def assert_sweep_matches_train_rls(H, Y, lams):
    models = rls_sweep(H, Y, lams)
    assert len(models) == len(lams)
    for lam, model in zip(lams, models):
        ref = train_rls(H, Y, lam).weights
        assert model.kind == "rls" and model.weights.shape == ref.shape
        assert np.abs(model.weights - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("kappa", [1, 7, 15])
@pytest.mark.parametrize("rows, dim", [(120, 40), (40, 120), (60, 60)],
                         ids=["primal", "dual", "square"])
def test_rls_sweep_matches_train_rls(rows, dim, kappa):
    rng = SeedSpec(25).rng()
    H = clip(rng.integers(-20, 21, size=(rows, dim)), kappa)
    assert H.dtype == np.int8
    Y = one_hot(rng.integers(1, 4, size=rows), 3)
    assert_sweep_matches_train_rls(H, Y, DEFAULT_LAMBDA_GRID)


@settings(deadline=None, max_examples=150)
@given(
    rows=st.integers(1, 10), dim=st.integers(1, 10), n_classes=st.integers(2, 4),
    kappa=st.sampled_from([1, 7, 15]), seed=st.integers(0, 2**32 - 1),
    lams=st.lists(st.sampled_from(DEFAULT_LAMBDA_GRID), min_size=1, max_size=5),
)
def test_rls_sweep_matches_train_rls_on_small_shapes(rows, dim, n_classes, kappa, seed, lams):
    rng = np.random.default_rng(seed)
    H = rng.integers(-kappa, kappa + 1, size=(rows, dim)).astype(np.int8)
    Y = one_hot(rng.integers(1, n_classes + 1, size=rows), n_classes)
    assert_sweep_matches_train_rls(H, Y, lams)


@pytest.mark.parametrize("rows, dim", [(5, 1), (1, 6), (1, 1)], ids=["dim1", "one-row-dual", "1x1"])
def test_rls_sweep_on_a_one_by_one_gram(rows, dim):
    rng = SeedSpec(26).rng()
    H = rng.integers(-7, 8, size=(rows, dim))
    H[0, 0] = 3  # never all zero
    Y = one_hot(np.arange(rows) % 2 + 1, 2)
    assert_sweep_matches_train_rls(H, Y, [2.0**-10, 1.0, 32.0])


def test_rls_sweep_at_lambda_zero_matches_train_rls():
    rng = SeedSpec(27).rng()
    H = rng.integers(-7, 8, size=(30, 6))
    Y = one_hot(rng.integers(1, 3, size=30), 2)
    assert_sweep_matches_train_rls(H, Y, [0.0, 0.5])


@pytest.mark.parametrize("rows, dim", [(4, 3), (4, 1)])
def test_rls_sweep_singular_without_ridge(rows, dim):
    # A zero lambda keeps the primal Gram matrix, here all zero.
    with pytest.raises(SingularSystemError, match="lambda"):
        rls_sweep(np.zeros((rows, dim), dtype=np.int8), one_hot([1, 2, 1, 2], 2), [1.0, 0.0])


def numpy_gram_sweep(H, Y, lams):
    """rls_sweep's weights with the Gram and cross products taken in numpy.

    The reflectors are handed to dormqr as the strided slice reduced[1:, :-1],
    which f2py copies for each call.
    """
    H = np.asarray(H, dtype=np.float64)
    dual = H.shape[0] < H.shape[1] and min(lams) > 0
    gram, rhs = (H @ H.T, Y) if dual else (H.T @ H, H.T @ Y)
    lwork, _ = lapack.dsytrd_lwork(gram.shape[0], lower=1)
    reduced, diag, off, tau, info = lapack.dsytrd(gram.T, lower=1, lwork=int(lwork))
    assert info == 0
    rhs = _reflect(reduced[1:, :-1], tau, rhs, "T")
    solutions = np.hstack([_solve_tridiagonal(diag + lam, off, rhs, lam) for lam in lams])
    solutions = _reflect(reduced[1:, :-1], tau, solutions, "N")
    if dual:
        solutions = H.T @ solutions
    return [w.T for w in np.split(solutions, len(lams), axis=1)]


@pytest.mark.parametrize("rows, dim", [
    pytest.param(1500, 750, id="primal"),
    pytest.param(500, 750, id="dual"),
    pytest.param(600, 300, id="primal-600x300"),
    pytest.param(1, 40, id="dual-one-row"),
    pytest.param(300, 1, id="primal-one-column"),
])
def test_rls_sweep_equals_numpy_gram_path_bit_for_bit(rows, dim):
    # Integer activations make every Gram and cross-product entry exact in
    # any form, and the closing product is issued in the form of numpy's.
    rng = SeedSpec(28).rng()
    H = int8_activations(rng, rows, dim, 40)
    Y = one_hot(rng.integers(1, 4, size=rows), 3)
    want = numpy_gram_sweep(H, Y, DEFAULT_LAMBDA_GRID)
    got = rls_sweep(H, Y, DEFAULT_LAMBDA_GRID)
    assert all(np.array_equal(m.weights, w) for m, w in zip(got, want, strict=True))


@pytest.mark.parametrize("system", ["primal", "dual"])
@pytest.mark.parametrize("n", [1, 2, 3, 250, 750])
def test_rls_sweep_float64_weights_from_compacted_reflectors_bit_for_bit(n, system):
    # rls_sweep moves the reflectors to the front of the reduced matrix; the
    # reference hands dormqr the strided slice, which f2py copies.  n is the
    # order of the Gram matrix, so n = 1 reduces nothing and tau is empty.
    rng = SeedSpec(36).child(system, n).rng()
    rows, dim = (2 * n + 3, n) if system == "primal" else (n, n + 5)
    H = clip(rng.integers(-40, 41, size=(rows, dim)), 15)
    Y = one_hot(np.arange(rows) % 3 + 1, 3)
    want = numpy_gram_sweep(H, Y, DEFAULT_LAMBDA_GRID)
    got = rls_sweep(H, Y, DEFAULT_LAMBDA_GRID)
    assert all(np.array_equal(m.weights, w) for m, w in zip(got, want, strict=True))
    if n == 1:
        assert lapack.dsytrd(np.ones((1, 1)), lower=1)[3].size == 0


class CountingBlas:
    """scipy's BLAS module, counting the calls made through it by routine name."""

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        routine = getattr(blas, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return routine(*args, **kwargs)

        return counted


@pytest.fixture
def counting_blas(monkeypatch):
    counter = CountingBlas()
    monkeypatch.setattr(hvnet.classifiers, "blas", counter)
    return counter.calls


def assert_fits_equal_numpy_fits(H, Y, lams):
    """train_rls and rls_sweep give the weights of numpy's float64 products of H bit for bit."""
    for lam in lams:
        assert np.array_equal(train_rls(H, Y, lam).weights, inline_primal_rls(H, Y, lam))
    got, want = rls_sweep(H, Y, lams), numpy_gram_sweep(H, Y, lams)
    assert all(np.array_equal(g.weights, w) for g, w in zip(got, want, strict=True))


def assert_streamed_system_equals_numpy(H, Y, lams, routines, counting_blas):
    """The primal system is numpy's H64.T @ H64 (lower triangle) and H64.T @ Y, by ``routines``."""
    gram, rhs, dual_H = _normal_equations(H, Y, lams)
    H64 = H.astype(np.float64)
    assert dual_H is None and gram.flags.f_contiguous
    assert np.array_equal(np.tril(gram), np.tril(H64.T @ H64))
    assert not np.triu(gram, 1).any()
    assert np.array_equal(rhs, H64.T @ Y)
    # Streamed over blocks of rows and columns, in the routines of one dtype.
    assert set(counting_blas) == routines
    return gram


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
@pytest.mark.parametrize("rows, dim, kappa", [(1500, 750, 15), (600, 300, 7), (300, 300, 1)])
def test_integer_primal_systems_equal_the_float64_ones_bit_for_bit(
    rows, dim, kappa, dtype, counting_blas
):
    rng = SeedSpec(32).rng()
    H = clip(rng.integers(-40, 41, size=(rows, dim)), kappa).astype(dtype)
    Y = one_hot(rng.integers(1, 4, size=rows), 3)
    assert_streamed_system_equals_numpy(H, Y, [1.0], {"ssyrk", "sgemm"}, counting_blas)
    assert_fits_equal_numpy_fits(H, Y, [0.0, 2.0**-10, 1.0, 32.0])


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
@pytest.mark.parametrize("dim", [1, GRAM_PANEL - 1, GRAM_PANEL, GRAM_PANEL + 1])
@pytest.mark.parametrize("rows", [1, GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1])
def test_streamed_float32_system_equals_the_float64_products_bit_for_bit(
    rows, dim, dtype, counting_blas
):
    # A zero lambda keeps the primal system at every shape.  The upper
    # triangle is never written.
    rng = SeedSpec(37).child("streamed", rows * 1000 + dim).rng()
    H = clip(rng.integers(-40, 41, size=(rows, dim)), 15).astype(dtype)
    Y = one_hot(rng.integers(1, 4, size=rows), 3)
    assert_streamed_system_equals_numpy(H, Y, [0.0], {"ssyrk", "sgemm"}, counting_blas)


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
@pytest.mark.parametrize("dim", [1, GRAM_PANEL - 1, GRAM_PANEL, GRAM_PANEL + 1])
@pytest.mark.parametrize("rows", [1, GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1])
def test_streamed_float64_system_equals_the_float64_products_bit_for_bit(
    rows, dim, dtype, counting_blas
):
    # Column 0 is all 2**15 - 1, so even one row sums past 2**24 and the
    # panels are float64; every sum stays an exact integer below 2**53.
    rng = SeedSpec(38).child("streamed", rows * 1000 + dim).rng()
    H = rng.integers(-2**15 + 1, 2**15, size=(rows, dim)).astype(dtype)
    H[:, 0] = 2**15 - 1
    Y = one_hot(rng.integers(1, 4, size=rows), 3)
    assert_streamed_system_equals_numpy(H, Y, [0.0], {"dsyrk", "dgemm"}, counting_blas)


@pytest.mark.parametrize("rows, routines", [
    pytest.param(1040, {"ssyrk", "sgemm"}, id="under-2**24"),
    pytest.param(1041, {"dsyrk", "dgemm"}, id="over-2**24"),
])
def test_the_float32_bound_is_the_largest_partial_sum(rows, routines, counting_blas):
    # Column 0 is all 127, so its diagonal Gram entry is rows * 127**2:
    # 16,774,160 just under 2**24, and the odd 16,790,289 just over it,
    # which float32 cannot hold.
    rng = SeedSpec(33).rng()
    H = rng.integers(-127, 128, size=(rows, 8)).astype(np.int8)
    H[:, 0] = 127
    Y = one_hot(rng.integers(1, 3, size=rows), 2)
    gram = assert_streamed_system_equals_numpy(H, Y, [1.0], routines, counting_blas)
    assert gram[0, 0] == rows * 127**2
    # Both dtypes stream the same calls: one syrk and one gemm per block of
    # rows, as the 8 columns make one panel.
    assert dict(counting_blas) == dict.fromkeys(routines, math.ceil(rows / GRAM_BLOCK))
    assert_fits_equal_numpy_fits(H, Y, [2.0**-10, 1.0])


def test_the_dual_system_keeps_the_float64_products(counting_blas):
    rng = SeedSpec(34).rng()
    H = rng.integers(-7, 8, size=(10, 20)).astype(np.int8)
    Y = one_hot(rng.integers(1, 3, size=10), 2)
    gram, rhs, dual_H = _normal_equations(H, Y, [1.0])
    H64 = np.asarray(H, dtype=np.float64)
    assert dict(counting_blas) == {"dsyrk": 1}
    assert dual_H.dtype == np.float64 and np.array_equal(dual_H, H64)
    assert np.array_equal(np.tril(gram), np.tril(H64 @ H64.T))
    assert rhs is Y


# The ids name the solvers, not the functions, so that CI's determinism
# matrix, which selects ridge bit tests by name, leaves these out.
@pytest.mark.parametrize("fit", [
    lambda H, Y: train_rls(H, Y, 1.0),
    lambda H, Y: rls_sweep(H, Y, [1.0, 32.0]),
], ids=["cholesky", "tridiagonal"])
@pytest.mark.parametrize("case", ["fractional-H", "single-H", "fractional-Y", "nan-Y", "inf-Y"])
@pytest.mark.parametrize("rows", [60, 10], ids=["primal", "dual"])
def test_ridge_fits_reject_what_the_encoder_never_makes(fit, case, rows):
    rng = SeedSpec(34).rng()
    H = rng.integers(-7, 8, size=(rows, 20)).astype(np.int8)
    Y = one_hot(rng.integers(1, 3, size=rows), 2)
    message = "targets must be finite integers"
    if case == "fractional-H":
        H = H + 0.5
    elif case == "single-H":
        H = H.astype(np.float32)
    elif case == "fractional-Y":
        Y = Y / 3
    else:
        Y[5, 1] = np.nan if case == "nan-Y" else np.inf
    if case.endswith("H"):
        message = f"activations must be integers, got dtype {H.dtype}"
    with pytest.raises(InvalidParameterError, match=message):
        fit(H, Y)


def test_rls_sweep_holds_no_float64_copy_of_integer_activations():
    # One float64 Gram matrix (4.3 MiB) and 2 MiB: no copy of H and no
    # float32 Gram matrix fit beside it, nor a copy of the reflectors.
    rng = SeedSpec(35).rng()
    H = clip(rng.integers(-40, 41, size=(1500, 750)), 15)
    Y = one_hot(rng.integers(1, 4, size=1500), 3)
    rls_sweep(H, Y, DEFAULT_LAMBDA_GRID)  # any first-call allocations
    tracemalloc.start()
    try:
        rls_sweep(H, Y, DEFAULT_LAMBDA_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * H.shape[1] ** 2 + 2 * 2**20


@pytest.mark.parametrize("fit", [
    lambda H, Y: train_rls(H, Y, 1.0),
    lambda H, Y: rls_sweep(H, Y, DEFAULT_LAMBDA_GRID),
], ids=["train_rls", "rls_sweep"])
def test_fits_over_the_float32_bound_hold_no_float64_copy_of_activations(fit):
    # At kappa = 127, 6000 rows sum past 2**24, so the panels are float64.
    # Two float64 Gram matrices (4.3 MiB each: train_rls factors a copy) and
    # 2 MiB stay far below the 34 MiB of a float64 copy of H.
    rng = SeedSpec(39).rng()
    H = clip(rng.integers(-200, 201, size=(6000, 750)), 127)
    Y = one_hot(rng.integers(1, 4, size=6000), 3)
    fit(H, Y)  # any first-call allocations
    tracemalloc.start()
    try:
        fit(H, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * H.shape[1] ** 2 + 2 * 2**20


# ---------------------------------------------------------------- centroids


def test_centroid_single_sample():
    with pytest.warns(EmptyClassWarning):
        model = train_centroids(np.array([[3, 4]]), np.array([1]), 2)
    np.testing.assert_allclose(model.weights[0], [0.6, 0.8], atol=1e-12)
    np.testing.assert_array_equal(model.class_sums[0], [3, 4])


def test_centroid_two_samples_one_class():
    H = np.array([[1, 1, 0], [1, 0, 1]])
    with pytest.warns(EmptyClassWarning):
        model = train_centroids(H, np.array([1, 1]), 2)
    np.testing.assert_allclose(model.weights[0], np.array([2, 1, 1]) / np.sqrt(6), atol=1e-12)


def test_centroid_empty_class_is_zero_row():
    with pytest.warns(EmptyClassWarning):
        model = train_centroids(np.array([[1, 2], [2, 1]]), np.array([1, 1]), 3)
    np.testing.assert_array_equal(model.weights[1], [0, 0])
    np.testing.assert_array_equal(model.weights[2], [0, 0])
    assert model.class_sums.tolist() == [[3, 3], [0, 0], [0, 0]]


def test_empty_class_warning_prints_plain_class_numbers():
    with pytest.warns(EmptyClassWarning, match=r"classes \[3\] have a zero-norm sum"):
        train_centroids(np.array([[1, 2], [2, 1]]), np.array([1, 2]), 3)


@pytest.mark.parametrize("labels, n_classes, message", [
    ([0, 5, 7], 2, r"labels must lie in 1\.\.n_classes"),
    ([1, 2, 3], 2, r"labels must lie in 1\.\.n_classes"),
    ([1, 1, 1], 1, "n_classes must be an integer >= 2, got 1"),
    ([1, 1, 1], 0, "n_classes must be an integer >= 2, got 0"),
    ([1, 2, 1], 2.5, "n_classes must be an integer >= 2, got 2.5"),
    ([1, 2, 1], True, "n_classes must be an integer >= 2, got True"),
], ids=["below-and-above", "above", "one-class", "no-class", "non-integer", "bool"])
def test_centroids_reject_labels_outside_the_classes(labels, n_classes, message):
    # Before the check, labels outside 1..n_classes were dropped with only an
    # EmptyClassWarning, and n_classes=0 failed on the empty weights.
    with pytest.raises(InvalidParameterError, match=message):
        train_centroids(np.ones((3, 4), np.int8), labels, n_classes)


def test_centroids_reject_activations_that_are_not_integers():
    for H in (np.ones((3, 4)), np.ones((3, 4), np.float32)):
        with pytest.raises(InvalidParameterError, match=f"must be integers, got dtype {H.dtype}"):
            train_centroids(H, [1, 2, 1], 2)


@pytest.mark.parametrize("H, labels, error, message", [
    (np.zeros((0, 4), np.int8), [1], DimensionError, r"got shape \(0, 4\)"),
    (np.ones(4, np.int8), [1, 2, 1, 2], DimensionError, r"got shape \(4,\)"),
    (np.ones((3, 4), np.int8), [1, 2], DimensionError, r"need 3 labels in a 1-D array"),
    (np.ones((3, 4), np.int8), [[1, 2, 1]], DimensionError, r"got \(1, 3\)"),
], ids=["no-rows", "1-D", "label-count", "2-D-labels"])
def test_centroids_reject_activations_and_labels_that_do_not_match(H, labels, error, message):
    with pytest.raises(error, match=message):
        train_centroids(H, labels, 2)


@pytest.mark.parametrize("sums", [np.ones(4), np.float64(2.0), np.ones((2, 3, 4))],
                         ids=["1-D", "0-D", "3-D"])
def test_finalize_centroids_rejects_sums_that_are_not_a_matrix(sums):
    with pytest.raises(DimensionError, match="class sums must be a 2-D"):
        finalize_centroids(sums)


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
    rebuilt = finalize_centroids(sums)
    np.testing.assert_array_equal(direct.weights, rebuilt.weights)


def test_centroid_perfect_on_separated_clusters():
    # Tight clusters around distinct corners: training accuracy must be 1.
    rng = SeedSpec(26).rng()
    centers = np.array([[10, 0, 0], [0, 10, 0], [0, 0, 10]])
    labels = np.repeat([1, 2, 3], 30)
    H = centers[labels - 1] + rng.integers(-1, 2, size=(90, 3))
    model = train_centroids(H, labels, 3)
    assert evaluate(model, H, labels) == 1.0


# --------------------------------------------------------------- prediction


def test_predict_identity_weights():
    model = train_rls(np.eye(2, dtype=np.int8), np.eye(2), 0.0)
    np.testing.assert_array_equal(predict_batch(model, [[9, 1]]), [1])


def test_predict_scale_invariance():
    rng = SeedSpec(27).rng()
    model = train_rls(rng.integers(-7, 8, size=(20, 8)), one_hot(rng.integers(1, 4, 20), 3), 0.1)
    scaled = ClassifierMatrix(weights=7.5 * model.weights, kind="rls")
    H = rng.integers(-7, 8, size=(10, 8))
    want = predict_batch(model, H)
    np.testing.assert_array_equal(predict_batch(scaled, H), want)
    np.testing.assert_array_equal(predict_batch(model, 3 * H), want)


def test_predict_tie_goes_to_lowest_class():
    model = ClassifierMatrix(weights=np.array([[1.0, 0.0], [1.0, 0.0]]), kind="rls")
    np.testing.assert_array_equal(predict_batch(model, [[2, 1]]), [1])
    np.testing.assert_array_equal(predict(model.weights, [[2, 1]]), [1])


def test_predict_dimension_mismatch():
    model = train_rls(np.eye(3, dtype=np.int8), one_hot([1, 2, 1], 2), 0.5)
    with pytest.raises(DimensionError):
        predict_batch(model, np.ones((1, 4), np.int8))
    with pytest.raises(DimensionError):
        predict_batch(model, np.ones(3, np.int8))


# --------------------------------------------------------------- evaluation


def test_evaluate_perfect_and_single_sample():
    H = np.eye(3, dtype=np.int8)
    model = train_rls(H, np.eye(3), 0.0)
    assert evaluate(model, H, [1, 2, 3]) == 1.0
    assert evaluate(model, H[:1], [1]) in (0.0, 1.0)
    assert evaluate(model, H[:1], [2]) == 0.0


def test_evaluate_random_labels_near_chance():
    rng = SeedSpec(28).rng()
    model = train_rls(rng.integers(-7, 8, size=(30, 16)), one_hot(rng.integers(1, 4, 30), 3), 1.0)
    H = rng.integers(-7, 8, size=(3000, 16))
    labels = rng.integers(1, 4, size=3000)  # independent of H: chance level 1/3
    assert abs(evaluate(model, H, labels) - 1 / 3) < 0.05


def test_evaluate_empty_rejected():
    model = train_rls(np.eye(2, dtype=np.int8), np.eye(2), 0.0)
    with pytest.raises(DimensionError, match=r"one or more rows .*, got shape \(0, 2\)"):
        evaluate(model, np.zeros((0, 2), np.int8), [])


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
def test_scorers_reject_activations_that_are_not_integers(dtype):
    # The scorers take only the encoder's integers, as the fits do.
    model = train_rls(np.eye(2, dtype=np.int8), np.eye(2), 0.5)
    H = np.eye(2).astype(dtype)
    message = re.escape(f"activations must be integers, got dtype {H.dtype}")
    for call in (lambda: predict_batch(model, H), lambda: evaluate(model, H, [1, 2]),
                 lambda: evaluate_shards([[model]], H, [1, 2], None)):
        with pytest.raises(InvalidParameterError, match=message):
            call()


def test_predict_batch_agrees_with_the_oracle():
    rng = SeedSpec(29).rng()
    model = train_rls(rng.integers(-7, 8, size=(25, 6)), one_hot(rng.integers(1, 3, 25), 2), 0.2)
    H = rng.integers(-7, 8, size=(12, 6))
    np.testing.assert_array_equal(predict_batch(model, H), predict(model.weights, H))


def test_predict_batch_across_row_blocks():
    # Integer activations spanning several scoring blocks, with all-zero rows
    # (a three-way tie, won by class 1) on both sides of each block boundary.
    rng = SeedSpec(30).rng()
    model = train_rls(rng.integers(-7, 8, size=(40, 9)), one_hot(rng.integers(1, 4, 40), 3), 0.5)
    H = rng.integers(-7, 8, size=(2 * PREDICT_BLOCK + 7, 9))
    H[[0, PREDICT_BLOCK - 1, PREDICT_BLOCK, 2 * PREDICT_BLOCK, -1]] = 0
    got = predict_batch(model, H)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, predict(model.weights, H))
    assert got[PREDICT_BLOCK - 1] == got[PREDICT_BLOCK] == got[-1] == 1


@pytest.mark.parametrize("n_models, dim", [(1, 30), (40, 30), (3, 600)])
def test_every_scoring_wrapper_matches_the_reference(n_models, dim):
    # Integer weights and activations make every score exact, so the repeated
    # class row (classes 2 and 3) and the all-zero activation rows tie exactly,
    # on both sides of each block boundary.  Forty 4 x 30 models take forty
    # products per block, one each; a 4 x 600 model is wide enough that a
    # block holds fewer than PREDICT_BLOCK rows.
    rng = SeedSpec(32).rng()
    block = min(PREDICT_BLOCK, 2**18 // (4 * dim))
    assert (block < PREDICT_BLOCK) == (dim == 600)
    models = [
        ClassifierMatrix(
            weights=rng.integers(-3, 4, size=(3, dim)).astype(np.float64)[[0, 1, 1, 2]],
            kind="rls",
        )
        for _ in range(n_models)
    ]
    H = rng.integers(-7, 8, size=(2 * block + 7, dim)).astype(np.int8)
    edges = [0, block - 1, block, 2 * block - 1, 2 * block, -1]
    H[edges] = 0
    labels = rng.integers(1, 5, size=H.shape[0])
    expected = [np.argmax(H.astype(float) @ m.weights.T, axis=1) + 1 for m in models]
    for model, want in zip(models, expected):
        assert np.any(want == 2) and not np.any(want == 3) and np.all(want[edges] == 1)
        got = predict_batch(model, H)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert evaluate(model, H, labels) == np.mean(want == labels)
    accuracies = [np.mean(want == labels) for want in expected]
    assert evaluate_shards([models], H, labels, None) == [accuracies]


def test_classifier_matrix_rejects_empty_weights():
    for weights in [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3), [[1.0, 2.0]]]:
        with pytest.raises(DimensionError):
            ClassifierMatrix(weights=weights, kind="rls")


def test_classifier_matrix_rejects_an_unknown_kind():
    with pytest.raises(InvalidParameterError, match="kind must be one of"):
        ClassifierMatrix(weights=np.eye(2), kind="svm")


@pytest.mark.parametrize("weights", [
    np.array([[None] * 6] * 2), np.eye(2, 6) * 1j, np.array([["1"] * 6] * 2),
], ids=["object", "complex", "str"])
def test_classifier_matrix_holds_real_weights_only(weights):
    # Unchecked, evaluate scored object weights as NaN (0.5 here), dropped
    # the imaginary part of complex ones and raised numpy's ValueError on strings.
    with pytest.raises(InvalidParameterError, match="weights must be real numbers, got dtype"):
        evaluate(ClassifierMatrix(weights=weights, kind="rls"), np.eye(2, 6, dtype=np.int8), [1, 2])


def test_classifier_matrix_holds_class_sums_of_its_weights_shape():
    sums = np.arange(16).reshape(2, 8)
    model = ClassifierMatrix(weights=np.ones((2, 8)), kind="centroid", class_sums=sums)
    assert model.class_sums is sums
    # Unchecked, (3, 8) sums beside (2, 8) weights were exchanged as a 3-class aggregate.
    with pytest.raises(DimensionError, match=r"class sums of shape \(3, 8\) do not match "
                                             r"weights of shape \(2, 8\)"):
        ClassifierMatrix(weights=np.ones((2, 8)), kind="centroid", class_sums=np.ones((3, 8)))
    with pytest.raises(InvalidParameterError, match="class sums must be real numbers"):
        ClassifierMatrix(weights=np.ones((2, 8)), kind="centroid",
                         class_sums=np.ones((2, 8)) * 1j)


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
    for name in ("class_sums", "weights"):
        assert np.array_equal(getattr(c8, name), getattr(c64, name))

    r8, r64 = train_rls(H8, one_hot(labels, 3), 0.5), train_rls(H64, one_hot(labels, 3), 0.5)
    assert np.array_equal(r8.weights, r64.weights)
    for model in (c64, r64):
        assert np.array_equal(predict_batch(model, H8), predict_batch(model, H64))


def test_evaluate_shards_breaks_ties_like_evaluate():
    # Zero and repeated weight rows tie exactly on every sample, and all-zero
    # activations tie under every model; the row count is not a multiple of
    # PREDICT_BLOCK.
    rng = SeedSpec(31).rng()
    base = rng.standard_normal((3, 9))
    models = [
        ClassifierMatrix(weights=np.zeros((3, 9)), kind="rls"),
        ClassifierMatrix(weights=base[[0, 0, 1]], kind="rls"),
        ClassifierMatrix(weights=base[[1, 2, 2]], kind="rls"),
        ClassifierMatrix(weights=base, kind="rls"),
    ]
    H = rng.integers(-7, 8, size=(2 * PREDICT_BLOCK + 7, 9)).astype(np.int8)
    H[[0, PREDICT_BLOCK - 1, PREDICT_BLOCK, -1]] = 0
    labels = rng.integers(1, 4, size=H.shape[0])
    got = evaluate_shards([models], H, labels, None)[0]
    assert got == [evaluate(m, H, labels) for m in models]
    assert got[0] == np.mean(labels == 1)


@pytest.mark.parametrize("models, H, labels, error", [
    ([], np.zeros((2, 2)), [1, 2], InvalidParameterError),
    ([np.eye(2), np.eye(3)[:2]], np.zeros((2, 2)), [1, 2], DimensionError),
    ([np.eye(2)], np.zeros((2, 3), np.int8), [1, 2], DimensionError),
    ([np.eye(2)], np.zeros((2, 2), np.int8), [1], DimensionError),
    ([np.eye(2)], np.zeros((0, 2), np.int8), [], DimensionError),
], ids=["no-models", "two-shapes", "dim", "label-count", "empty-test-set"])
def test_evaluate_shards_rejects_mismatched_inputs(models, H, labels, error):
    models = [ClassifierMatrix(weights=w, kind="rls") for w in models]
    with pytest.raises(error):
        evaluate_shards([models], H, labels, None)


# ---------------------------------------------------- the activation contract


def _fits_and_scorers(labels, n_classes):
    """(name, call) for every fit and scorer; a call takes len(labels) rows of activations.

    The scorers' models are 4 wide.
    """
    Y = one_hot(labels, n_classes)
    weights = SeedSpec(33).rng().standard_normal((2, n_classes, 4))
    models = [ClassifierMatrix(weights=w, kind="rls") for w in weights]
    return [
        ("train_rls", lambda H: train_rls(H, Y, 0.5).weights),
        ("rls_sweep", lambda H: [m.weights for m in rls_sweep(H, Y, [2.0**-10, 1.0, 32.0])]),
        ("train_centroids", lambda H: train_centroids(H, labels, n_classes).class_sums),
        ("predict_batch", lambda H: predict_batch(models[0], H)),
        ("evaluate", lambda H: evaluate(models[0], H, labels)),
        ("evaluate_shards", lambda H: evaluate_shards([models], H, labels, None)),
    ]


def test_a_bool_in_a_list_is_not_an_integer():
    # numpy reads [1, True, 2] as int64, which read True as class 1.
    H = np.ones((3, 2), np.int8)
    model = train_rls(np.eye(2, dtype=np.int8), np.eye(2), 0.5)
    for call in (
        lambda: one_hot([1, True, 2], 2),
        lambda: one_hot((1, np.True_, 2), 2),
        lambda: train_centroids(H, [1, True, 2], 2),
        lambda: evaluate(model, H[:, :2], [1, True, 2]),
        lambda: evaluate_shards([[model]], H, [1, False, 2], None),
        lambda: predict_batch(model, [[1, True]]),
        lambda: train_rls([[1, 0], [0, True]], np.eye(2), 0.5),
        lambda: train_centroids([np.array([1, 2]), np.array([True, False])], [1, 2], 2),
        lambda: train_centroids([[1, 0], [np.array(True), 2]], [1, 2], 2),
    ):
        with pytest.raises(InvalidParameterError, match="must be integers, got a bool"):
            call()
    # The same values without a bool pass.
    np.testing.assert_array_equal(one_hot([1, 1, 2], 2), one_hot(np.array([1, 1, 2]), 2))
    np.testing.assert_array_equal(predict_batch(model, [[1, 1]]), predict_batch(model, H[:1]))


def _awkward(H, layout):
    """The values of the int64 activations H in another dtype, container or memory layout."""
    if layout in ("int8", "int16", "int32", "uint8"):
        return H.astype(layout)
    if layout == "list":
        return H.tolist()
    if layout == "fortran":
        return np.asfortranarray(H)
    if layout == "column-strided":
        return np.repeat(H, 2, axis=1)[:, ::2]
    if layout == "row-strided":
        return np.repeat(H, 3, axis=0)[::3]
    assert layout == "negative-stride"
    return np.ascontiguousarray(H[::-1, ::-1])[::-1, ::-1]


LAYOUTS = ("int8", "int16", "int32", "uint8", "list", "fortran", "column-strided", "row-strided",
           "negative-stride")
FITS = ("train_rls", "rls_sweep", "train_centroids")


def _bits(value):
    value = np.asarray(value)
    return value.dtype.str, value.shape, value.tobytes()


@settings(deadline=None, max_examples=150, derandomize=True)
@given(rows=st.integers(1, 7), n_classes=st.integers(2, 3), layout=st.sampled_from(LAYOUTS),
       seed=st.integers(0, 2**32 - 1))
def test_fits_and_scorers_read_any_layout_of_activations_bit_for_bit(rows, n_classes, layout, seed):
    # With 4 columns, rows < 4 takes the dual ridge system and rows >= 4 the primal one.
    rng = np.random.default_rng(seed)
    H = rng.integers(0 if layout == "uint8" else -7, 8, size=(rows, 4))
    labels = rng.integers(1, n_classes + 1, size=rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyClassWarning)
        for name, call in _fits_and_scorers(labels, n_classes):
            assert _bits(call(_awkward(H, layout))) == _bits(call(H)), name
            # 1-D, 0-d, 3-D, no rows, no columns and, for a scorer, the wrong width.
            wrong = [H[0], H[0, 0], H[None], H[:0], H[:, :0]]
            for bad in wrong if name in FITS else wrong + [np.hstack([H, H])]:
                shape = re.escape(str(np.shape(bad)))
                with pytest.raises(DimensionError, match=f"need activations .*, got shape {shape}"):
                    call(bad)


# ------------------------------------------------------- batches of shards

SHARD_CASES = ("unequal", "missing-class", "primal", "lambda-0", "one-shard", "ten-classes-dim-500")


def _shard_case(case):
    """(H, labels, shards, n_classes, lam): one train set and shards of its rows, in any order."""
    rng = np.random.default_rng(SHARD_CASES.index(case))
    n_classes, dim, lam, sizes = {
        # 1 to 55 rows of 40 columns: dual and primal ridge systems side by side.
        "unequal": (3, 40, 0.5, [1, 2, 7, 30, 55]),
        "missing-class": (4, 16, 1.0, [3, 9, 12, 25]),
        "primal": (3, 12, 2.0, [20, 35, 12]),
        # lambda = 0 takes the primal system, which needs more rows than columns.
        "lambda-0": (2, 8, 0.0, [30, 41]),
        "one-shard": (3, 24, 1.0, [50]),
        # 2**18 // (10 * 500) = 52 rows per scoring block, fewer than PREDICT_BLOCK.
        "ten-classes-dim-500": (10, 500, 1.0, [60, 130, 7, 105]),
    }[case]
    n_rows = sum(sizes) + 5  # some rows are in no shard
    H = rng.integers(-7, 8, size=(n_rows, dim)).astype(np.int8)
    labels = rng.integers(1, n_classes + 1, size=n_rows)
    if case == "missing-class":
        labels[labels == 4] = 3
        labels[:12] = 1  # the first shards hold class 1 alone
    order = np.concatenate([np.arange(12), 12 + rng.permutation(n_rows - 12)])
    shards = np.split(order[:sum(sizes)], np.cumsum(sizes)[:-1])
    return H, labels, shards, n_classes, lam


def _messages(caught):
    return [(w.category, str(w.message)) for w in caught]


def _reference_fit(kind, H, labels, n_classes, lam):
    """(weights, class sums, EmptyClassWarning message or None) of one shard, fit alone.

    Written apart from the library, as one agent's fit was before the batch
    functions: centroids from mask sums and np.linalg.norm, ridge weights
    from an exact integer system solved by scipy's cho_factor and cho_solve.
    """
    if kind == "centroid":
        sums = np.zeros((n_classes, H.shape[1]), dtype=np.int64)
        for i in range(1, n_classes + 1):
            sums[i - 1] = H[labels == i].sum(axis=0, dtype=np.int64)
        weights = sums.astype(np.float64)
        norms = np.linalg.norm(weights, axis=1)
        zero = norms == 0.0
        weights[~zero] /= norms[~zero, None]
        message = (f"classes {(np.flatnonzero(zero) + 1).tolist()} have a zero-norm sum; "
                   "their rows are all-zero") if zero.any() else None
        return weights, sums, message
    H64 = H.astype(np.int64)
    Y = (labels[:, None] == np.arange(1, n_classes + 1)).astype(np.int64)
    dual = H.shape[0] < H.shape[1] and lam > 0  # the library's primal/dual rule
    gram, rhs = (H64 @ H64.T, Y) if dual else (H64.T @ H64, H64.T @ Y)
    gram = np.array(gram, dtype=np.float64, order="F")
    gram[np.diag_indices_from(gram)] += lam
    w = sla.cho_solve(sla.cho_factor(gram, overwrite_a=True), rhs.astype(np.float64))
    return (H.astype(np.float64).T @ w).T if dual else w.T, None, None


def _reference_predictions(models, H):
    """(n_models, n_rows) 1-based winners, scored as one agent's models were scored alone.

    Each block of rows, counted from the first, is cast to float64 and
    scored by one dgemm per model, a block being at most PREDICT_BLOCK rows
    and 2**18 multiply-adds.
    """
    n_classes, dim = models[0].weights.shape
    step = min(PREDICT_BLOCK, max(1, 2**18 // (n_classes * dim)))
    out = np.empty((len(models), H.shape[0]), dtype=np.int64)
    for start in range(0, H.shape[0], step):
        block = np.asarray(H[start:start + step], dtype=np.float64)
        for m, model in enumerate(models):
            w = np.ascontiguousarray(model.weights, dtype=np.float64)
            scores = blas.dgemm(1.0, w.T, block.T, trans_a=1).T
            out[m, start:start + step] = np.argmax(scores, axis=1)
    return out + 1


@pytest.mark.parametrize("kind", ["rls", "centroid"])
@pytest.mark.parametrize("case", SHARD_CASES)
def test_fit_shards_equals_one_fit_per_shard_bit_for_bit(kind, case):
    H, labels, shards, n_classes, lam = _shard_case(case)
    want = [_reference_fit(kind, H[s], labels[s], n_classes, lam) for s in shards]
    with warnings.catch_warnings(record=True) as batch_warned:
        warnings.simplefilter("always")
        got = fit_shards(kind, H, labels, shards, n_classes, lam)
    with warnings.catch_warnings(record=True) as alone_warned:
        warnings.simplefilter("always")
        if kind == "rls":
            alone = [train_rls(H[s], one_hot(labels[s], n_classes), lam) for s in shards]
        else:
            alone = [train_centroids(H[s], labels[s], n_classes) for s in shards]
    assert len(got) == len(alone) == len(want)
    for g, a, (weights, sums, _) in zip(got, alone, want):
        assert g.kind == a.kind == kind
        assert _bits(g.weights) == _bits(a.weights) == _bits(weights)
        if kind == "centroid":
            assert _bits(g.class_sums) == _bits(a.class_sums) == _bits(sums)
    # One EmptyClassWarning per shard that lacks a class, worded as a one-shard fit words it.
    messages = [(EmptyClassWarning, m) for _, _, m in want if m is not None]
    assert _messages(batch_warned) == _messages(alone_warned) == messages
    if kind == "centroid" and case == "missing-class":
        assert messages


@pytest.mark.parametrize("case", SHARD_CASES)
def test_evaluate_shards_equals_evaluate_per_shard_bit_for_bit(case):
    H, labels, shards, n_classes, lam = _shard_case(case)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyClassWarning)
        fitted = [fit_shards(kind, H, labels, shards, n_classes, max(lam, 0.5))
                  for kind in ("rls", "centroid")]
    shared = ClassifierMatrix(weights=SeedSpec(40).rng().standard_normal((n_classes, H.shape[1])),
                              kind="rls")
    # One to three models per shard, one of them scored on every shard.
    models = [[fitted[0][p], shared, fitted[1][p]][:1 + p % 3] for p in range(len(shards))]
    want = []
    for m, s in zip(models, shards):
        predicted = _reference_predictions(m, H[s])
        assert all(_bits(predict_batch(w, H[s])) == _bits(p) for w, p in zip(m, predicted))
        want.append([float(c / s.size) for c in np.count_nonzero(predicted == labels[s], axis=1)])
    assert evaluate_shards(models, H, labels, shards) == want
    assert [evaluate_shards([m], H[s], labels[s], None)[0] for m, s in zip(models, shards)] == want
    assert [[evaluate(w, H[s], labels[s]) for w in m] for m, s in zip(models, shards)] == want


def test_shard_batches_reject_what_is_not_a_shard_set():
    # hdc.check_rows owns the shard rules (see test_hdc); each batch call routes its shards there.
    H, labels = np.ones((6, 4), np.int8), [1, 2, 1, 2, 1, 2]
    model = ClassifierMatrix(weights=np.eye(2, 4), kind="rls")
    for shards, error, message in [
        ([], DimensionError, r"shard indices must be non-empty 1-D arrays, got shapes \[\]"),
        ([np.array([1]), np.array([-1, 2])], InvalidParameterError,
         r"shard indices must lie in 0\.\.5"),
    ]:
        for call in (
            lambda: fit_shards("rls", H, labels, shards, 2, 1.0),
            lambda: fit_shards("centroid", H, labels, shards, 2, 1.0),
            lambda: evaluate_shards([[model]] * max(1, len(shards)), H, labels, shards),
        ):
            with pytest.raises(error, match=message):
                call()
    with pytest.raises(InvalidParameterError, match="kind must be one of"):
        fit_shards("svm", H, labels, [np.arange(6)], 2, 1.0)
    with pytest.raises(InvalidParameterError, match="lambda"):
        fit_shards("rls", H, labels, [np.arange(6)], 2, -1.0)
    with pytest.raises(DimensionError, match="one shard per model set, got 2 shards for 1"):
        evaluate_shards([[model]], H, labels, [np.arange(3), np.arange(3, 6)])
    with pytest.raises(InvalidParameterError, match="need at least one model"):
        evaluate_shards([[model], []], H, labels, [np.arange(3), np.arange(3, 6)])


@pytest.mark.parametrize("values", [
    np.array([["1", "0"]]), np.array([[1, None]], dtype=object), np.array([[1j, 0]]),
], ids=["str", "object", "complex"])
def test_targets_and_class_sums_must_be_real_numbers(values):
    # numpy raised its own ValueError for strings and None, and cast complex to real.
    message = f"must be real numbers, got dtype {re.escape(str(values.dtype))}"
    with pytest.raises(InvalidParameterError, match=f"targets {message}"):
        train_rls(np.ones((1, 2), np.int8), values, 1.0)
    with pytest.raises(InvalidParameterError, match=f"class sums {message}"):
        finalize_centroids(values)
