"""Output-layer training and winner-takes-all prediction.

Two classifier kinds share one storage layout: an (n_classes, dim) weight
matrix applied on the left of a hidden activation.  Every fit and scorer
takes integer activations and 1-based class labels, checked by
``hdc.check_activations`` and ``hdc.check_labels``.  :func:`fit_shards` and
:func:`evaluate_shards` fit and score one model set per row set of one
activation matrix, checking their inputs once; the one-set functions wrap them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
# sla is not called here, but perfbench/tracer.py wraps sla.cho_factor through
# this module, so it must stay importable from it.
from scipy import linalg as sla  # noqa: F401
from scipy.linalg import blas, lapack

from .errors import DimensionError, EmptyClassWarning, InvalidParameterError, SingularSystemError
from .hdc import (
    check_activations, check_count, check_integers, check_labels, check_lambda, check_real,
)
from .records import CLASSIFIER_KINDS

__all__ = [
    "ClassifierMatrix",
    "evaluate",
    "evaluate_shards",
    "finalize_centroids",
    "fit_shards",
    "one_hot",
    "predict_batch",
    "rls_from_gram",
    "rls_sweep",
    "train_centroids",
    "train_rls",
]

# Most rows scored per matrix product (see _winners).
PREDICT_BLOCK = 128
# Most rows of H cast to float at once, and most Gram columns summed at
# once, in a streamed primal ridge system (see _exact_system).
GRAM_BLOCK = 256
GRAM_PANEL = 256
# Most reflector columns moved at once by _compact_reflectors.
REFLECT_BLOCK = 32
# Most shards whose centroids fit_shards sums and normalizes at once.
CENTROID_BLOCK = 16


@dataclass(frozen=True)
class ClassifierMatrix:
    """Trained output layer.

    ``weights`` is (n_classes, dim).  Centroid classifiers additionally
    retain the unnormalized per-class activation sums so that distributed
    aggregation can reproduce centralized training exactly; they are None
    for the least-squares kind.
    """

    weights: np.ndarray
    kind: str
    class_sums: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CLASSIFIER_KINDS:
            raise InvalidParameterError(f"kind must be one of {CLASSIFIER_KINDS}")
        if not isinstance(self.weights, np.ndarray):
            raise DimensionError(f"weights must be a numpy array, got {type(self.weights).__name__}")
        if self.weights.ndim != 2 or min(self.weights.shape) < 1:
            raise DimensionError(f"weights must be 2-D, non-empty, got {self.weights.shape}")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def one_hot(labels, n_classes: int) -> NDArray[np.float64]:
    """Rows of indicator vectors for 1-based class labels of n_classes >= 2 classes."""
    check_count("n_classes", n_classes, lo=2)
    labels = check_labels(labels, n_classes)
    out = np.zeros((labels.shape[0], n_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels - 1] = 1.0
    return out


def _design(H, Y) -> tuple[NDArray[np.integer], NDArray[np.float64]]:
    """Integer activations, in their dtype, and integer-valued float64 targets with as many rows.

    Every entry of a ridge system is then an exact integer sum, which
    :func:`_normal_equations` may form in any order.
    """
    H = check_activations(H)
    Y = check_real("targets", Y).astype(np.float64, copy=False)
    if Y.ndim != 2 or Y.shape[0] != H.shape[0] or Y.shape[1] < 1:
        raise DimensionError(f"need targets in a 2-D array of {H.shape[0]} rows and one or more "
                             f"columns, got shape {Y.shape}")
    if not np.all(np.isfinite(Y) & (Y == np.rint(Y))):
        raise InvalidParameterError("targets must be finite integers")
    return H, Y


def train_rls(H, Y, lam: float) -> ClassifierMatrix:
    """Ridge-regularized least-squares output weights in one analytic step.

    Solves (H^T H + lam I)^-1 H^T Y, or the equivalent dual form
    H^T (H H^T + lam I)^-1 Y where :func:`_normal_equations` picks it (it is
    much cheaper for small shards), by a Cholesky factorization.  H must
    hold integer activations and Y integer-valued targets (see :func:`_design`).
    """
    H, Y = _design(H, Y)
    check_lambda(lam)
    return _ridge(H, Y, lam)


def _ridge(H, Y, lam: float) -> ClassifierMatrix:
    """The ridge fit of checked H and Y: one system, one Cholesky solve."""
    gram, rhs, dual_H = _normal_equations(H, Y, [lam])
    # gram.T holds in its upper triangle the lower one that syrk filled.
    weights = rls_from_gram(gram.T, rhs, lam).weights
    if dual_H is not None:
        weights = _from_dual(weights.T, dual_H)
    return ClassifierMatrix(weights=weights, kind="rls")


def _normal_equations(H, Y, lams) -> tuple[NDArray, NDArray, NDArray | None]:
    """(gram, rhs, dual_H), the float64 ridge system of H and Y for all of ``lams``.

    The one primal/dual rule: H H^T against Y when there are fewer rows than
    columns and every lambda is positive, else H^T H against H^T Y, of which
    only the lower triangle is filled.  H and Y are integers (see
    :func:`_design`), so every entry is an exact integer in any summation
    order: the same bits at every BLAS kernel and thread count.  The dual
    system is one dsyrk of H in float64, ``dual_H``, which :func:`_from_dual`
    maps back with; :func:`_exact_system` streams the primal one.  Both use
    scipy's BLAS, which also solves: each library's OpenBLAS has its own
    thread pool, and one that has just finished spins on the cores the other needs.
    """
    if H.shape[0] < H.shape[1] and min(lams) > 0:
        H = np.asarray(H, dtype=np.float64)
        return blas.dsyrk(1.0, H.T, trans=1, lower=1), Y, H
    return (*_exact_system(H, Y), None)


def _exact_system(H, Y) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(gram, rhs): H^T H's lower triangle and H^T Y in float64, streamed from integer H.

    The Gram matrix is built one panel of GRAM_PANEL columns at a time (see
    :func:`_exact_panel`) and each panel is widened into the float64 Gram
    matrix as it is finished, so only one panel and one block of rows exist
    at a time, never a float copy of H.  The panels are float32 when
    :func:`_exact_in_float32` admits the system, else float64.  Every
    partial sum is an exact integer (below 2**53 in float64), so any
    blocking gives the same bits.  The Gram matrix's upper triangle is never
    computed and stays zero: dsytrd(lower=1) and the transposed Cholesky of
    :func:`train_rls` read only the lower one.
    """
    rows, dim = H.shape
    dtype = np.float32 if _exact_in_float32(H, Y) else np.float64
    gram = np.zeros((dim, dim), order="F")
    rhs = np.empty((dim, Y.shape[1]))
    Y = np.ascontiguousarray(Y, dtype=dtype)
    buffer = np.empty(min(GRAM_BLOCK, rows) * dim, dtype=dtype)
    for c0 in range(0, dim, GRAM_PANEL):
        c1 = min(c0 + GRAM_PANEL, dim)
        gram[c0:c1, c0:c1], gram[c1:, c0:c1], rhs[c0:c1] = _exact_panel(H, Y, c0, c1, buffer)
    return gram, rhs


def _exact_panel(H, Y, c0: int, c1: int, buffer):
    """Columns c0:c1 of H^T H from row c0 down, and rows c0:c1 of H^T Y, in buffer's dtype.

    Returned as the diagonal block (lower triangle only, by syrk), the block
    below it and the rows of H^T Y (by gemm).  Each is summed over blocks of
    GRAM_BLOCK rows of H, cast into ``buffer``, with beta = 1.
    """
    rows, dim = H.shape
    width, below = c1 - c0, dim - c1
    syrk, gemm = (blas.ssyrk, blas.sgemm) if buffer.itemsize == 4 else (blas.dsyrk, blas.dgemm)
    diag = np.zeros((width, width), dtype=buffer.dtype, order="F")
    lower = np.zeros((below, width), dtype=buffer.dtype, order="F")
    cross = np.zeros((width, Y.shape[1]), dtype=buffer.dtype, order="F")
    for r0 in range(0, rows, GRAM_BLOCK):
        r1 = min(r0 + GRAM_BLOCK, rows)
        n = r1 - r0
        head = buffer[:n * width].reshape(n, width)
        np.copyto(head, H[r0:r1, c0:c1], casting="same_kind")
        # The .T of a C-ordered block is the Fortran view BLAS takes without
        # a copy, and overwrite_c adds into the panel in place.
        diag = syrk(1.0, head.T, beta=1.0, c=diag, lower=1, overwrite_c=1)
        cross = gemm(1.0, head.T, Y[r0:r1].T, trans_b=1, beta=1.0, c=cross, overwrite_c=1)
        if below:
            tail = buffer[n * width:n * (width + below)].reshape(n, below)
            np.copyto(tail, H[r0:r1, c1:], casting="same_kind")
            lower = gemm(1.0, tail.T, head.T, trans_b=1, beta=1.0, c=lower, overwrite_c=1)
    return diag, lower, cross


def _exact_in_float32(H, Y) -> bool:
    """Whether every partial sum of H^T H and H^T Y is below 2**24, so exact in float32.

    With m = max|H|, no partial sum over the rows exceeds
    rows * m * max(m, max|Y|) (m is taken as at least 1 so that Y itself
    fits when H is all zero).
    """
    m = max(-int(H.min()), int(H.max()))
    return H.shape[0] * max(m, 1) * max(m, float(np.abs(Y).max())) < 2**24


def _from_dual(S, H) -> NDArray[np.float64]:
    """Weights (H^T S)^T of a dual solution S, as S^T H: numpy's ``H.T @ S`` bits."""
    return blas.dgemm(1.0, S, H.T, trans_a=1, trans_b=1)


def rls_from_gram(gram, cross, lam: float) -> ClassifierMatrix:
    """Ridge solution from precomputed H^T H and H^T Y (both left intact).

    Only the upper triangle of ``gram`` is read.  Also solves the dual system
    of :func:`train_rls`, given H H^T and Y.  One Cholesky factorization per
    call, by LAPACK's dpotrf and dpotrs, the routines scipy's ``cho_factor``
    and ``cho_solve`` call, on the same arguments; to solve for many lambdas
    over one design matrix, :func:`rls_sweep` reduces the Gram matrix once instead.
    """
    # The one copy of the Gram matrix, in the Fortran order that LAPACK
    # factors in place.
    gram = np.asarray_chkfinite(np.array(gram, dtype=np.float64, order="F"))
    cross = np.asarray_chkfinite(np.asarray(cross, dtype=np.float64))
    check_lambda(lam)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DimensionError(f"need a square Gram matrix, got shape {gram.shape}")
    gram.ravel(order="F")[::gram.shape[0] + 1] += lam  # the diagonal, through a view
    factor, info = lapack.dpotrf(gram, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise SingularSystemError(
            f"normal equations are singular at lambda={lam}; use a larger lambda"
        )
    _check_info("dpotrf", info)
    w, info = lapack.dpotrs(factor, cross, lower=0)
    _check_info("dpotrs", info)
    return ClassifierMatrix(weights=w.T, kind="rls")


def rls_sweep(H, Y, lams) -> list[ClassifierMatrix]:
    """The :func:`train_rls` solution for every lambda of ``lams``, in order.

    The Gram matrix of :func:`_normal_equations`, which picks the primal or
    dual system and says which BLAS it calls, is reduced once to Q T Q^T, T
    tridiagonal, by Householder reflections (LAPACK dsytrd).  Each lambda
    then costs one linear-time solve of (T + lam I) X = Q^T B (dptsv), and Q
    is applied to all the solutions at once, from reflectors that
    :func:`_compact_reflectors` moves in place within the reduced matrix.
    The weights agree with ``train_rls`` to rounding, not bit for bit.
    """
    H, Y = _design(H, Y)
    lams = list(lams)
    if not lams:
        raise InvalidParameterError("need at least one lambda")
    for lam in lams:
        check_lambda(lam)
    gram, rhs, dual_H = _normal_equations(H, Y, lams)
    lwork, _ = lapack.dsytrd_lwork(gram.shape[0], lower=1)
    reduced, diag, off, tau, info = lapack.dsytrd(
        gram, lower=1, lwork=int(lwork), overwrite_a=1
    )
    _check_info("dsytrd", info)
    factor = _compact_reflectors(reduced)
    rhs = _reflect(factor, tau, rhs, "T")
    solutions = np.hstack([_solve_tridiagonal(diag + lam, off, rhs, lam) for lam in lams])
    solutions = _reflect(factor, tau, solutions, "N")
    weights = solutions.T if dual_H is None else _from_dual(solutions, dual_H)
    return [ClassifierMatrix(weights=w, kind="rls") for w in np.split(weights, len(lams))]


def _compact_reflectors(reduced) -> NDArray[np.float64]:
    """reduced[1:, :-1] of a Fortran-ordered lower dsytrd output, moved in place.

    The result is a contiguous Fortran (n - 1, n - 1) view of the front of
    ``reduced``'s buffer, which dormqr reads without the copy f2py makes of
    the strided slice; the rest of ``reduced`` is left as scratch, so its
    diagonal, off-diagonal and tau must be read first.  Column j moves from
    offset j*n + 1 down to j*(n - 1), never onto a column still to move, so
    REFLECT_BLOCK columns at a time in column order is safe (numpy reads an
    overlapping block through a temporary).
    """
    n = reduced.shape[0]
    flat = reduced.reshape(-1, order="F")  # a view: reduced is Fortran-ordered
    for j in range(0, n - 1, REFLECT_BLOCK):
        k = min(REFLECT_BLOCK, n - 1 - j)
        moved = flat[j * n:(j + k) * n].reshape(n, k, order="F")[1:]
        flat[j * (n - 1):(j + k) * (n - 1)].reshape(n - 1, k, order="F")[...] = moved
    return flat[:(n - 1) ** 2].reshape(n - 1, n - 1, order="F")


def _reflect(factor, tau, B, trans: str) -> NDArray[np.float64]:
    """Q B (``trans`` "N") or Q^T B ("T") for the Q of a lower dsytrd reduction.

    Q = diag(1, Q') where Q' is stored like a QR factor in ``factor``, the
    reduced matrix's reduced[1:, :-1] (the layout dormtr passes on to
    dormqr) as :func:`_compact_reflectors` returns it, so row 0 of B is left
    as it is.
    """
    out = np.array(B, dtype=np.float64, order="F")
    if tau.size:
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
            f"normal equations are singular at lambda={lam}; use a larger lambda"
        )
    _check_info("dptsv", info)
    return x


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise RuntimeError(f"LAPACK {routine} rejected argument {-info}")


def finalize_centroids(class_sums) -> ClassifierMatrix:
    """Normalize per-class activation sums to unit rows; empty classes stay zero."""
    sums = check_real("class sums", class_sums)
    if sums.ndim != 2:
        raise DimensionError(f"class sums must be a 2-D (n_classes, dim) array, got {sums.shape}")
    return ClassifierMatrix(weights=_normalize(sums[None])[0], kind="centroid", class_sums=sums)


def _normalize(sums) -> NDArray[np.float64]:
    """Unit-norm rows of (n_sets, n_classes, dim) class sums, in float64; zero rows stay zero.

    Warns ``EmptyClassWarning`` once per set that has a zero-norm class.
    Each row's norm and quotient have the bits of that row normalized alone.
    """
    weights = sums.astype(np.float64)
    # np.linalg.norm's formula for real input, without its copy of conj(weights).
    norms = np.sqrt(np.add.reduce(weights * weights, axis=2))
    nonzero = norms != 0.0
    np.divide(weights, norms[..., None], out=weights, where=nonzero[..., None])
    for zero in ~nonzero[~nonzero.all(axis=1)]:
        warnings.warn(
            f"classes {(np.flatnonzero(zero) + 1).tolist()} have a zero-norm sum; "
            "their rows are all-zero",
            EmptyClassWarning,
            stacklevel=3,
        )
    return weights


def train_centroids(H, labels, n_classes: int) -> ClassifierMatrix:
    """One unit-norm centroid per class (n_classes >= 2), from its samples' integer activations.

    Class sums are exact in int64, so shard-wise aggregation reproduces them bit for bit.
    """
    return fit_shards("centroid", H, labels, None, n_classes, 0.0)[0]


def fit_shards(kind: str, H, labels, shards, n_classes: int, lam: float) -> list[ClassifierMatrix]:
    """One classifier of ``kind`` per shard, fit on the rows ``H[shard]`` and their labels.

    Each shard is a non-empty 1-D array of row indices into H; ``None`` is
    one shard of every row.  H, the 1-based labels, lambda (read by "rls"
    only) and the shards are checked once.  A shard's model equals
    :func:`train_rls` on its ``one_hot`` targets, or :func:`train_centroids`
    on its rows, bit for bit.  The centroids are fit CENTROID_BLOCK shards
    at a time (see :func:`_centroids`).
    """
    if kind not in CLASSIFIER_KINDS:
        raise InvalidParameterError(f"kind must be one of {CLASSIFIER_KINDS}")
    H = check_activations(H)
    check_count("n_classes", n_classes, lo=2)
    labels = check_labels(labels, n_classes, H.shape[0])
    check_lambda(lam)
    shards = _check_shards(shards, H.shape[0])
    if kind == "rls":
        Y = one_hot(labels, n_classes)
        return [_ridge(H[rows], Y[rows], lam) for rows in shards]
    return [model for b in range(0, len(shards), CENTROID_BLOCK)
            for model in _centroids(H, labels, shards[b:b + CENTROID_BLOCK], n_classes)]


def _centroids(H, labels, shards, n_classes: int) -> list[ClassifierMatrix]:
    """The centroids of each of the checked ``shards``: exact int64 class sums, normalized.

    One stable sort of the shards' rows by (shard, class) makes each class
    sum one contiguous slice.  On suite-reference's shards this took about
    0.6 of the time of one mask per class and shard, and ``np.add.reduceat``
    over the slices was slower than either.  Blocks of CENTROID_BLOCK shards keep the
    sums and weights small: fresh pages for every shard's at once cost more
    to fault in than the blocks save, and raise the peak memory.
    """
    rows = np.concatenate(shards)
    group = np.repeat(np.arange(len(shards)) * n_classes, [s.size for s in shards])
    group += labels[rows] - 1
    members = H[rows[np.argsort(group, kind="stable")]]
    ends = np.cumsum(np.bincount(group, minlength=len(shards) * n_classes)).tolist()
    sums = np.zeros((len(shards), n_classes, H.shape[1]), dtype=np.int64)
    for g, (start, end) in enumerate(zip([0, *ends], ends)):
        if end > start:
            np.add.reduce(members[start:end], axis=0, dtype=np.int64,
                          out=sums[g // n_classes, g % n_classes])
    return [ClassifierMatrix(weights=w, kind="centroid", class_sums=c)
            for w, c in zip(_normalize(sums), sums)]


def _check_shards(shards, n_rows: int) -> list[np.ndarray]:
    """``shards`` as a list of non-empty 1-D integer index arrays into n_rows rows.

    ``None`` is one shard of every row.
    """
    if shards is None:
        return [np.arange(n_rows)]
    shards = [check_integers("shard indices", s) for s in shards]
    if not shards:
        raise InvalidParameterError("need at least one shard")
    for s in shards:
        if s.ndim != 1 or s.size < 1:
            raise DimensionError(
                f"need each shard as a non-empty 1-D index array, got shape {s.shape}"
            )
    every = np.concatenate(shards)
    if every.min() < 0 or every.max() >= n_rows:
        raise InvalidParameterError(f"shard indices must lie in 0..{n_rows - 1}")
    return shards


def predict_batch(w: ClassifierMatrix, H) -> NDArray[np.int64]:
    """Winner-takes-all class of every row of integer activations; ties go to the lowest class."""
    H = check_activations(H, w.dim)
    return _winners([[w]], H, [np.arange(H.shape[0])])[0][0].astype(np.int64) + 1


def evaluate(w: ClassifierMatrix, H, labels) -> float:
    """Fraction of rows whose winner-takes-all prediction matches the label."""
    return evaluate_shards([[w]], H, labels, None)[0][0]


def evaluate_shards(models_per_shard, H, labels, shards) -> list[list[float]]:
    """Each shard's accuracies: ``evaluate(w, H[shard], labels[shard])`` for each of its models.

    ``models_per_shard[p]`` holds the models scored on ``shards[p]``, a
    non-empty 1-D array of row indices into H (``None`` is one shard of
    every row); every model has one weights shape.  The models, H, the
    labels and the shards are checked once.  The one accuracy function.
    """
    models_per_shard = [list(models) for models in models_per_shard]
    if not models_per_shard or not all(models_per_shard):
        raise InvalidParameterError("need at least one model")
    n_classes, dim = models_per_shard[0][0].weights.shape
    if any(w.weights.shape != (n_classes, dim) for models in models_per_shard for w in models):
        raise DimensionError("models must share one weights shape")
    H = check_activations(H, dim)
    labels = check_labels(labels, n_classes, H.shape[0])
    shards = _check_shards(shards, H.shape[0])
    if len(shards) != len(models_per_shard):
        raise DimensionError(f"need one shard per model set, got {len(shards)} shards "
                             f"for {len(models_per_shard)} model sets")
    return [((winners == labels[rows] - 1).sum(axis=1) / rows.size).tolist()  # classes from 0
            for winners, rows in zip(_winners(models_per_shard, H, shards), shards)]


def _winners(models_per_shard, H, shards) -> list[NDArray[np.unsignedinteger]]:
    """The 0-based winner-takes-all classes of each shard's models, one (models, rows) array each.

    Row j of shard p's array holds its j-th model's classes of the rows
    ``shards[p]``, in the narrowest unsigned type that holds every class
    (uint8 up to 256 classes), so that all shards' winners, held at once,
    take one byte per model and row.  The one scoring loop.  Each block of
    a shard's rows is gathered and cast to float64 once and scored against
    each of its models' weights in turn, one scipy dgemm per model, the
    BLAS every ridge fit uses, so a grid step stays in one thread pool.  The
    products are written into one (models, rows, n_classes) buffer.  A
    product holds exactly one model: OpenBLAS rounds a score differently
    depending on how many weight rows share a product, so stacked models
    would make a prediction depend on the models scored beside it.  It also
    threads a product above 2**18 multiply-adds, and a threaded product can
    round differently, so a prediction could depend on the thread count.  A
    product therefore scores PREDICT_BLOCK rows (fewer for a model wider
    than 2**18 / PREDICT_BLOCK weights), counted from the shard's first row.
    argmax picks the first maximum, i.e. the lowest class index on ties.
    """
    n_classes, dim = models_per_shard[0][0].weights.shape
    step = min(PREDICT_BLOCK, max(1, 2**18 // (n_classes * dim)))
    rows_at_once = min(step, max(rows.size for rows in shards))
    scores = np.empty((max(map(len, models_per_shard)), rows_at_once, n_classes))
    cast = np.empty((rows_at_once, dim))
    winners = []
    for models, rows in zip(models_per_shard, shards):
        weights = [np.ascontiguousarray(w.weights, dtype=np.float64) for w in models]
        winners.append(np.empty((len(weights), rows.size), dtype=np.min_scalar_type(n_classes - 1)))
        for start in range(0, rows.size, step):
            index = rows[start:start + step]
            block = cast[:index.size]
            block[...] = H[index]
            out = scores[:len(weights), :index.size]
            for m, w in enumerate(weights):
                # w.T is the Fortran-ordered view dgemm takes without a copy,
                # and out[m].T the one it writes w @ block.T into, so out[m]
                # has one row of class scores per sample.  Assigning dgemm's
                # result is then a no-op, and a copy should f2py ever copy c.
                out[m] = blas.dgemm(1.0, w.T, block.T, trans_a=1, c=out[m].T, overwrite_c=1).T
            winners[-1][:, start:start + index.size] = np.argmax(out, axis=2)
    return winners
