"""Output-layer training and winner-takes-all prediction.

Two classifier kinds share one storage layout: an (n_classes, dim) weight
matrix applied on the left of a hidden activation.  Class labels are
1-based throughout.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import linalg as sla
from scipy.linalg import blas, lapack

from .errors import DimensionError, EmptyClassWarning, InvalidParameterError, SingularSystemError

__all__ = [
    "ClassifierMatrix",
    "check_lambda",
    "evaluate",
    "evaluate_many",
    "finalize_centroids",
    "one_hot",
    "predict",
    "predict_batch",
    "rls_from_gram",
    "rls_sweep",
    "train_centroids",
    "train_rls",
]

CLASSIFIER_KINDS = ("rls", "centroid")
# Rows scored per matrix product in predict_batch.
PREDICT_BLOCK = 128


@dataclass(frozen=True)
class ClassifierMatrix:
    """Trained output layer.

    ``weights`` is (n_classes, dim).  Centroid classifiers additionally
    retain the unnormalized per-class activation sums and sample counts so
    that distributed aggregation can reproduce centralized training
    exactly; both are None for the least-squares kind.
    """

    weights: np.ndarray
    kind: str
    class_sums: np.ndarray | None = None
    class_counts: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise InvalidParameterError(f"kind must be one of {CLASSIFIER_KINDS}")
        if self.weights.ndim != 2 or self.weights.shape[0] < 1:
            raise DimensionError(f"weights must be 2-D, got shape {self.weights.shape}")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def one_hot(labels, n_classes: int) -> NDArray[np.float64]:
    """Rows of indicator vectors for 1-based class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size < 1:
        raise InvalidParameterError("labels must be a non-empty 1-D sequence")
    if n_classes < 2:
        raise InvalidParameterError("need at least two classes")
    if labels.min() < 1 or labels.max() > n_classes:
        raise InvalidParameterError("labels must lie in 1..n_classes")
    out = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels - 1] = 1.0
    return out


def check_lambda(lam) -> None:
    """Raise unless ``lam`` is a ridge parameter: a finite real number >= 0."""
    if isinstance(lam, bool) or not isinstance(lam, numbers.Real) or not 0 <= lam < math.inf:
        raise InvalidParameterError(f"lambda must be a finite number >= 0, got {lam!r}")


def _design(H, Y) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Activations and targets as float64 matrices with matching row counts."""
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if H.ndim != 2 or Y.ndim != 2:
        raise DimensionError("H and Y must be 2-D matrices")
    if H.shape[0] != Y.shape[0]:
        raise DimensionError(f"row counts differ: H has {H.shape[0]}, Y has {Y.shape[0]}")
    return H, Y


def train_rls(H, Y, lam: float) -> ClassifierMatrix:
    """Ridge-regularized least-squares output weights in one analytic step.

    Solves (H^T H + lam I)^-1 H^T Y through a symmetric positive-definite
    factorization.  When lam > 0 and there are fewer samples than hidden
    units, the algebraically equivalent dual form H^T (H H^T + lam I)^-1 Y
    is used, which is much cheaper for small shards.
    """
    H, Y = _design(H, Y)
    check_lambda(lam)
    m, d = H.shape
    if lam > 0 and m < d:
        gram = H @ H.T
        gram[np.diag_indices_from(gram)] += lam
        try:
            w = H.T @ sla.cho_solve(sla.cho_factor(gram), Y)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("dual normal equations are singular") from exc
        return ClassifierMatrix(weights=w.T, kind="rls")
    return rls_from_gram(H.T @ H, H.T @ Y, lam)


def rls_from_gram(gram, cross, lam: float) -> ClassifierMatrix:
    """Ridge solution from precomputed H^T H and H^T Y (both left intact).

    One Cholesky factorization per call; to solve for many lambdas over one
    design matrix, :func:`rls_sweep` reduces the Gram matrix once instead.
    """
    gram = np.array(gram, dtype=np.float64)
    cross = np.asarray(cross, dtype=np.float64)
    check_lambda(lam)
    if lam > 0:
        gram[np.diag_indices_from(gram)] += lam
    try:
        w = sla.cho_solve(sla.cho_factor(gram), cross)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular at lambda=0; use lambda > 0"
        ) from exc
    return ClassifierMatrix(weights=w.T, kind="rls")


def rls_sweep(H, Y, lams) -> list[ClassifierMatrix]:
    """The :func:`train_rls` solution for every lambda of ``lams``, in order.

    The smaller Gram matrix -- H^T H, or H H^T when there are fewer rows
    than columns and every lambda is positive, the choice ``train_rls``
    makes -- is reduced once to Q T Q^T, T tridiagonal, by Householder
    reflections (LAPACK dsytrd).  Each lambda then costs one linear-time
    solve of (T + lam I) X = Q^T B (dptsv), and Q is applied to all the
    solutions at once.  The weights agree with ``train_rls`` to rounding,
    not bit for bit.

    Every BLAS and LAPACK call here goes to scipy's BLAS.  numpy and scipy
    each bundle an OpenBLAS with its own thread pool, and a pool that has
    just finished keeps spinning on the cores the other one then needs.
    With integer activations every Gram and cross-product entry is an
    integer below 2**53, so these products are exact in any BLAS.
    """
    H, Y = _design(H, Y)
    lams = list(lams)
    if not lams:
        raise InvalidParameterError("need at least one lambda")
    for lam in lams:
        check_lambda(lam)
    m, d = H.shape
    dual = m < d and min(lams) > 0
    # H.T is the Fortran-ordered view BLAS takes without a copy.  dsyrk fills
    # only the lower triangle of the Gram matrix, which is all dsytrd reads.
    gram = blas.dsyrk(1.0, H.T, trans=1 if dual else 0, lower=1)
    rhs = Y if dual else blas.dgemm(1.0, H.T, Y)
    lwork, _ = lapack.dsytrd_lwork(gram.shape[0], lower=1)
    reduced, diag, off, tau, info = lapack.dsytrd(
        gram, lower=1, lwork=int(lwork), overwrite_a=1
    )
    _check_info("dsytrd", info)
    rhs = _reflect(reduced, tau, rhs, "T")
    solutions = np.hstack([_solve_tridiagonal(diag + lam, off, rhs, lam) for lam in lams])
    solutions = _reflect(reduced, tau, solutions, "N")
    if dual:
        # (H^T S)^T = S^T H, the product numpy's row-major H.T @ S hands to
        # its BLAS; in this form scipy's dgemm gives the same bits.
        weights = blas.dgemm(1.0, solutions, H.T, trans_a=1, trans_b=1)
    else:
        weights = solutions.T
    return [ClassifierMatrix(weights=w, kind="rls") for w in np.split(weights, len(lams))]


def _reflect(reduced, tau, B, trans: str) -> NDArray[np.float64]:
    """Q B (``trans`` "N") or Q^T B ("T") for the Q of a lower dsytrd reduction.

    Q = diag(1, Q') where Q' is stored like a QR factor in reduced[1:, :-1]
    (the layout dormtr passes on to dormqr), so row 0 of B is left as it is.
    """
    out = np.array(B, dtype=np.float64, order="F")
    if tau.size:
        factor = reduced[1:, :-1]
        _, work, info = lapack.dormqr("L", trans, factor, tau, out[1:], lwork=-1)
        _check_info("dormqr", info)
        out[1:], _, info = lapack.dormqr("L", trans, factor, tau, out[1:], lwork=int(work[0]))
        _check_info("dormqr", info)
    return out


def _solve_tridiagonal(diag, off, rhs, lam: float) -> NDArray[np.float64]:
    """X with T X = rhs for the symmetric positive-definite tridiagonal (diag, off)."""
    if diag.size > 1:
        _, _, x, info = lapack.dptsv(diag, off, rhs)
    elif diag[0] > 0:
        # dptsv rejects an empty off-diagonal; a 1 x 1 system is one division.
        x, info = rhs / diag[0], 0
    else:
        x, info = None, 1
    if info > 0:
        raise SingularSystemError(
            f"normal equations are singular at lambda={lam}; use lambda > 0"
        )
    _check_info("dptsv", info)
    return x


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise RuntimeError(f"LAPACK {routine} rejected argument {-info}")


def finalize_centroids(class_sums, class_counts) -> ClassifierMatrix:
    """Normalize per-class activation sums to unit rows; empty classes stay zero."""
    sums = np.asarray(class_sums)
    counts = np.asarray(class_counts, dtype=np.int64)
    weights = sums.astype(np.float64)
    norms = np.linalg.norm(weights, axis=1)
    zero = norms == 0.0
    if np.any(zero):
        warnings.warn(
            f"classes {list(np.flatnonzero(zero) + 1)} have a zero-norm sum; "
            "their rows are all-zero",
            EmptyClassWarning,
            stacklevel=2,
        )
    weights[~zero] /= norms[~zero, None]
    return ClassifierMatrix(
        weights=weights, kind="centroid", class_sums=sums, class_counts=counts
    )


def train_centroids(H, labels, n_classes: int) -> ClassifierMatrix:
    """One unit-norm centroid per class, from the hidden activations of its samples."""
    H = np.asarray(H)
    labels = np.asarray(labels, dtype=np.int64)
    if H.ndim != 2 or H.shape[0] < 1:
        raise InvalidParameterError("need at least one training sample")
    if labels.shape[0] != H.shape[0]:
        raise DimensionError("labels and activation rows must match")
    # Integer activations get exact integer sums, so shard-wise aggregation
    # reproduces these sums bit for bit.
    dtype = np.int64 if np.issubdtype(H.dtype, np.integer) else np.float64
    sums = np.zeros((n_classes, H.shape[1]), dtype=dtype)
    counts = np.zeros(n_classes, dtype=np.int64)
    for i in range(1, n_classes + 1):
        mask = labels == i
        counts[i - 1] = int(mask.sum())
        if counts[i - 1]:
            sums[i - 1] = H[mask].sum(axis=0, dtype=dtype)
    return finalize_centroids(sums, counts)


def predict(w: ClassifierMatrix, h) -> int:
    """Winner-takes-all class for one activation; ties go to the lowest class index."""
    h = np.asarray(h)
    if h.ndim != 1 or h.shape[0] != w.dim:
        raise DimensionError(f"activation length {h.shape} does not match dim {w.dim}")
    return int(predict_batch(w, h[None, :])[0])


def predict_batch(w: ClassifierMatrix, H) -> NDArray[np.int64]:
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[1] != w.dim:
        raise DimensionError(f"activations shape {H.shape} does not match dim {w.dim}")
    # Score PREDICT_BLOCK rows at a time: each block's float64 copy stays in
    # cache, and with a few classes and up to about a thousand dims the
    # product stays on the calling thread, so OpenBLAS does not wake its
    # thread pool (which then busy-waits) for every shard.  argmax picks the
    # first maximum, i.e. the lowest class index on ties.
    out = np.empty(H.shape[0], dtype=np.int64)
    for start in range(0, H.shape[0], PREDICT_BLOCK):
        block = np.asarray(H[start:start + PREDICT_BLOCK], dtype=np.float64)
        out[start:start + PREDICT_BLOCK] = np.argmax(block @ w.weights.T, axis=1)
    return out + 1


def _test_set(H, labels) -> tuple[np.ndarray, NDArray[np.int64]]:
    """Activations and labels of a non-empty test set with matching row counts."""
    labels = np.asarray(labels, dtype=np.int64)
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] < 1:
        raise InvalidParameterError("test set must be non-empty")
    if labels.shape[0] != H.shape[0]:
        raise DimensionError("labels and activation rows must match")
    return H, labels


def evaluate(w: ClassifierMatrix, H, labels) -> float:
    """Fraction of rows whose winner-takes-all prediction matches the label."""
    H, labels = _test_set(H, labels)
    return float(np.mean(predict_batch(w, H) == labels))


def evaluate_many(models, H, labels) -> list[float]:
    """``[evaluate(w, H, labels) for w in models]`` for models of one shape.

    Each PREDICT_BLOCK-row block is cast to float64 once and scored against
    all the models' weights, stacked, in one dgemm of scipy's BLAS: the
    library :func:`rls_sweep` solves in, so a grid step stays in one BLAS
    thread pool.  Ties go to the lowest class and matches are counted
    exactly, as in :func:`evaluate`.
    """
    models = list(models)
    if not models:
        raise InvalidParameterError("need at least one model")
    n_classes, dim = models[0].weights.shape
    if any(w.weights.shape != (n_classes, dim) for w in models):
        raise DimensionError("models must share one weights shape")
    H, labels = _test_set(H, labels)
    if H.shape[1] != dim:
        raise DimensionError(f"activations shape {H.shape} does not match dim {dim}")
    # stacked.T is the Fortran-ordered view dgemm takes without a copy.
    stacked = np.concatenate([w.weights for w in models]).astype(np.float64, copy=False)
    correct = np.zeros(len(models), dtype=np.int64)
    for start in range(0, H.shape[0], PREDICT_BLOCK):
        block = np.asarray(H[start:start + PREDICT_BLOCK], dtype=np.float64)
        # (stacked @ block.T).T: one row of (model, class) scores per sample.
        scores = blas.dgemm(1.0, stacked.T, block.T, trans_a=1).T
        winners = np.argmax(scores.reshape(len(block), len(models), n_classes), axis=2) + 1
        correct += np.count_nonzero(winners == labels[start:start + len(block), None], axis=0)
    return [float(c / H.shape[0]) for c in correct]
