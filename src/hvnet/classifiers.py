"""Output-layer training and winner-takes-all prediction.

Two classifier kinds share one storage layout: an (n_classes, dim) weight
matrix applied on the left of a hidden activation.  Class labels are
1-based throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import linalg as sla

from .errors import DimensionError, EmptyClassWarning, InvalidParameterError, SingularSystemError

__all__ = [
    "ClassifierMatrix",
    "evaluate",
    "finalize_centroids",
    "one_hot",
    "predict",
    "predict_batch",
    "rls_from_gram",
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


def train_rls(H, Y, lam: float) -> ClassifierMatrix:
    """Ridge-regularized least-squares output weights in one analytic step.

    Solves (H^T H + lam I)^-1 H^T Y through a symmetric positive-definite
    factorization.  When lam > 0 and there are fewer samples than hidden
    units, the algebraically equivalent dual form H^T (H H^T + lam I)^-1 Y
    is used, which is much cheaper for small shards.
    """
    H = np.asarray(H, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if H.ndim != 2 or Y.ndim != 2:
        raise DimensionError("H and Y must be 2-D matrices")
    if H.shape[0] != Y.shape[0]:
        raise DimensionError(f"row counts differ: H has {H.shape[0]}, Y has {Y.shape[0]}")
    if lam < 0:
        raise InvalidParameterError(f"lambda must be >= 0, got {lam}")
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

    Useful when sweeping lambda over a fixed design matrix.
    """
    gram = np.array(gram, dtype=np.float64)
    cross = np.asarray(cross, dtype=np.float64)
    if lam < 0:
        raise InvalidParameterError(f"lambda must be >= 0, got {lam}")
    if lam > 0:
        gram[np.diag_indices_from(gram)] += lam
    try:
        w = sla.cho_solve(sla.cho_factor(gram), cross)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular at lambda=0; use lambda > 0"
        ) from exc
    return ClassifierMatrix(weights=w.T, kind="rls")


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


def evaluate(w: ClassifierMatrix, H, labels) -> float:
    """Fraction of rows whose winner-takes-all prediction matches the label."""
    labels = np.asarray(labels, dtype=np.int64)
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] < 1:
        raise InvalidParameterError("test set must be non-empty")
    if labels.shape[0] != H.shape[0]:
        raise DimensionError("labels and activation rows must match")
    return float(np.mean(predict_batch(w, H) == labels))
