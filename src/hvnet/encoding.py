"""Hidden-layer encoding for the randomized network.

A feature value in [0, 1] becomes a bipolar thermometer code, is bound to
a fixed random bipolar column, and the per-feature results are summed and
clipped.  All outputs are integer vectors, which downstream code relies on
for exact aggregation.  They are narrow: sums take the narrowest signed
type that holds +-n_features (int8 up to 127 features, since |sum| <=
n_features), and clipped activations the narrowest that holds +kappa (int8
for kappa <= 127), so consumers widen before any arithmetic that could
overflow.  Sums are gathered ENCODE_BLOCK rows at a time and clipped in
place where the types agree, so encoding holds little beyond its output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .errors import DimensionError, InvalidParameterError
from .hdc import SeedSpec, check_count, check_real, clip, random_bipolar

__all__ = [
    "InputProjection",
    "encode_batch",
    "encode_batch_sums",
    "init_projection",
]

# Most rows gathered per table lookup in encode_batch_sums.
ENCODE_BLOCK = 512


@dataclass(frozen=True)
class InputProjection:
    """Frozen random first layer: one bipolar column of length dim per input feature."""

    columns: np.ndarray  # (dim, n_features) int8, entries in {-1, +1}
    seed: SeedSpec

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def n_features(self) -> int:
        return self.columns.shape[1]


def init_projection(n_features: int, dim: int, seed: SeedSpec) -> InputProjection:
    """Draw the fixed input projection; every column gets its own derived stream.

    Any party holding the same seed reconstructs the identical matrix.
    """
    check_count("n_features", n_features)  # random_bipolar checks dim
    cols = np.stack(
        [random_bipolar(dim, seed.child("input_column", j)) for j in range(n_features)],
        axis=1,
    )
    return InputProjection(columns=cols, seed=seed)


def _prefix_lengths(values: np.ndarray, dim: int) -> np.ndarray:
    # Written so that NaN, for which every comparison is False, fails too.
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise InvalidParameterError("feature values must lie in [0, 1]; normalize first")
    # Quantize to dim+1 levels, rounding half up so encodings are platform-independent.
    return np.floor(values * dim + 0.5).astype(np.int64)


def _thermometer_codes(dim: int) -> NDArray[np.int8]:
    """Read-only (dim + 1, dim) view whose row c is the code with c leading +1s.

    Every row is a window of one length-2*dim buffer of +1s then -1s.
    """
    return sliding_window_view(np.repeat(np.array([1, -1], dtype=np.int8), dim), dim)[::-1]


def encode_batch_sums(X, proj: InputProjection) -> NDArray[np.signedinteger]:
    """Unclipped hidden activations for a whole (n_samples, n_features) matrix.

    In the narrowest signed type that holds +-n_features: int8 up to 127
    features, int16 up to 32767, else int32.  Each feature's bound code rows
    are gathered ENCODE_BLOCK rows at a time, so no full-size temporary
    exists beside the sums; integer sums are exact in any blocking.
    """
    X = check_real("features", X)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] != proj.n_features:
        raise DimensionError(f"batch has shape {X.shape}, projection expects one or more rows "
                             f"of {proj.n_features} features")
    counts = _prefix_lengths(X.astype(np.float64, copy=False).ravel(), proj.dim).reshape(X.shape)
    codes = _thermometer_codes(proj.dim)
    # -n_features - 1, not -n_features: int8 holds -128 but not +128.
    acc = np.zeros((X.shape[0], proj.dim), dtype=np.min_scalar_type(-proj.n_features - 1))
    for j in range(proj.n_features):
        # Bind only the code levels this feature uses (ascending), then gather
        # their rows; rows[i] is the rank of row i's level among them.
        used = np.bincount(counts[:, j], minlength=proj.dim + 1) > 0
        levels, rows = np.flatnonzero(used), (np.cumsum(used) - 1)[counts[:, j]]
        table = codes[levels]  # (n_levels, dim) int8 copy
        table *= proj.columns[:, j]
        for start in range(0, X.shape[0], ENCODE_BLOCK):
            acc[start:start + ENCODE_BLOCK] += table[rows[start:start + ENCODE_BLOCK]]
    return acc


def encode_batch(X, proj: InputProjection, kappa: int) -> NDArray[np.signedinteger]:
    """Encode a whole (n_samples, n_features) matrix; rows are hidden activations.

    The sums are this call's own, so they are clipped in place when they
    already have the clipped type.
    """
    check_count("kappa", kappa)
    return clip(encode_batch_sums(X, proj), kappa, overwrite=True)
