"""Elementary hypervector algebra.

Hypervectors are plain 1-D numpy arrays of a fixed dimensionality D.
Bipolar vectors (entries in {-1, +1}) are kept as int8; generic
real-valued vectors are float64.  All randomized constructors are pure
functions of a :class:`SeedSpec`, so identical seeds give byte-identical
vectors on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, InvalidParameterError, SingularKeyError

__all__ = [
    "SeedSpec",
    "check_activations",
    "check_count",
    "check_flag",
    "check_integers",
    "check_labels",
    "check_lambda",
    "check_real",
    "check_rows",
    "check_seed",
    "circ_convolve",
    "clip",
    "inverse",
    "random_bipolar",
    "random_gaussian_key",
    "superpose",
]

# Spectral components with magnitude at or below this are treated as zero
# when building an exact inverse.
SPECTRUM_EPS = 1e-12

_MASK64 = 0xFFFFFFFFFFFFFFFF
_INT64_MAX = 2**63 - 1


def _tag_to_int(tag: str) -> int:
    # Stable across processes and platforms, unlike builtin hash().
    return int.from_bytes(hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic random-stream address: a master seed plus a path of (tag, index) labels.

    Identical (master_seed, stream_labels) always produce identical random
    output; distinct labels under one master seed produce statistically
    independent streams.
    """

    master_seed: int  # in [0, 2**64)
    stream_labels: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        check_seed("master_seed", self.master_seed)

    def child(self, tag: str, index: int = 0) -> "SeedSpec":
        """Derive a sub-stream for one purpose, e.g. ``seed.child("key", 3)``."""
        return SeedSpec(self.master_seed, self.stream_labels + ((tag, int(index)),))

    def rng(self) -> np.random.Generator:
        entropy = [int(self.master_seed)]
        for tag, index in self.stream_labels:
            entropy.append(_tag_to_int(tag))
            entropy.append(index & _MASK64)
        return np.random.default_rng(np.random.SeedSequence(entropy))


def _as_rows(v, name: str = "vector") -> np.ndarray:
    """A non-empty array of real numbers (:func:`check_real`), components on its last axis."""
    arr = check_real(name, v)
    if arr.ndim < 1 or arr.size < 1:
        raise DimensionError(f"{name} must be a non-empty array, got shape {arr.shape}")
    return arr


def _check_same_length(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[-1] != y.shape[-1]:
        raise DimensionError(f"length mismatch: {x.shape[-1]} vs {y.shape[-1]}")


def check_count(name: str, value, lo: int = 1, bits: int | None = None) -> None:
    """Raise unless ``value`` is an integer >= ``lo``, and below 2**bits when ``bits`` is given."""
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (is_int and value >= lo and (bits is None or value < 2**bits)):
        span = f">= {lo}" if bits is None else f"in [{lo}, 2**{bits})"
        raise InvalidParameterError(f"{name} must be an integer {span}, got {value!r}")


def check_flag(name: str, value) -> bool:
    """``value`` as a Python bool, checked to be a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_seed(name: str, value) -> None:
    """Raise unless ``value`` is an integer in [0, 2**64), the range of a seed or an agent id."""
    check_count(name, value, lo=0, bits=64)


def check_lambda(lam) -> float:
    """``lam`` as a float, checked to be a ridge parameter: a finite real number >= 0."""
    if isinstance(lam, numbers.Real) and not isinstance(lam, bool) and 0 <= lam < math.inf:
        with contextlib.suppress(OverflowError):  # float() of an int beyond the float range
            if (value := float(lam)) < math.inf:
                return value
    raise InvalidParameterError(f"lambda must be a finite number >= 0, got {lam!r}")


def _array(name: str, values) -> np.ndarray:
    """``values`` as an array; ragged lists, which numpy rejects untyped, are a shape fault."""
    try:
        return np.asarray(values)
    except ValueError:
        raise DimensionError(f"{name} must be a regular array, got ragged lists") from None


def check_integers(name: str, values) -> np.ndarray:
    """``values`` as an array, checked to have an integer dtype (bool is not one, nor in a list)."""
    array = _array(name, values)
    if array.dtype.kind not in "iu":
        raise InvalidParameterError(f"{name} must be integers, got dtype {array.dtype}")
    # numpy reads [1, True] and [1, np.array(True)] as int64, so the elements
    # of a list or tuple are looked at: a bool, a numpy bool or a 0-d bool array.
    if isinstance(values, (list, tuple)) and any(
        isinstance(v, bool) or getattr(v, "dtype", None) == np.bool_
        for v in np.asarray(values, dtype=object).flat
    ):
        raise InvalidParameterError(f"{name} must be integers, got a bool")
    return array


def check_real(name: str, values) -> np.ndarray:
    """``values`` as an array, checked to have a bool, integer or real floating dtype.

    Strings, objects and complex numbers, which numpy would cast or fail on untyped, are rejected.
    """
    array = _array(name, values)
    if array.dtype.kind not in "biuf":
        raise InvalidParameterError(f"{name} must be real numbers, got dtype {array.dtype}")
    return array


def check_activations(H, dim: int | None = None) -> np.ndarray:
    """``H`` as an array, checked to be integers in 2-D, with rows, and ``dim`` columns if given."""
    H = check_integers("activations", H)
    if H.ndim != 2 or 0 in H.shape or dim not in (None, H.shape[1]):
        raise DimensionError(f"need activations in a 2-D array of one or more rows and "
                             f"{dim or 'one or more'} columns, got shape {H.shape}")
    return H


def check_labels(labels, n_classes: int, rows: int | None = None) -> np.ndarray:
    """``labels`` as an array, checked to be non-empty, 1-D, ``rows`` long and in 1..n_classes."""
    array = _array("labels", labels)
    if array.ndim != 1 or array.size < 1 or rows not in (None, array.shape[0]):
        raise DimensionError(f"need {rows or 'some'} labels in a 1-D array, got {array.shape}")
    if check_integers("labels", labels).min() < 1 or array.max() > n_classes:
        raise InvalidParameterError("labels must lie in 1..n_classes")
    return array


def check_rows(name: str, row_sets, n_rows: int) -> list[np.ndarray]:
    """Each set as a non-empty 1-D integer array of row indices in 0..n_rows-1: the one index check.

    Shape and count faults raise ``DimensionError``, dtype and range faults (a bool is no index,
    also in a list) ``InvalidParameterError``; the range is checked once, over all the sets.
    """
    row_sets = list(row_sets)
    shapes = [_array(name, rows).shape for rows in row_sets]
    if not shapes or any(len(shape) != 1 or shape[0] < 1 for shape in shapes):
        raise DimensionError(f"{name} must be non-empty 1-D arrays, got shapes {shapes}")
    row_sets = [check_integers(name, rows) for rows in row_sets]
    every = np.concatenate(row_sets)
    if every.min() < 0 or every.max() >= n_rows:
        raise InvalidParameterError(f"{name} must lie in 0..{n_rows - 1}")
    return row_sets


def clip(v, kappa: int, *, overwrite: bool = False) -> np.ndarray:
    """Saturate every component of an integer vector or stack of vectors to [-kappa, kappa].

    The result has the narrowest signed type that holds +kappa: int8 for
    kappa <= 127, int16 up to 32767, int32 up to 2**31 - 1, else int64.
    Only integers are clipped (:func:`check_integers`), as activations are.
    With ``overwrite``, an array that already has that type is clipped in place and returned.
    """
    check_count("kappa", kappa)
    v = _as_rows(check_integers("clipped values", v))
    # -kappa - 1, not -kappa: int8 holds -128 but not +128.
    dtype = np.min_scalar_type(-min(kappa, _INT64_MAX) - 1)
    out = v if overwrite and v.dtype == dtype else np.empty(v.shape, dtype)
    return np.clip(v, -kappa, kappa, out=out, casting="unsafe")


def superpose(vs) -> np.ndarray:
    """Component-wise sum of one or more hypervectors, or of equal-shape stacks of them.

    Inputs are added one at a time, in order, except that numpy adds eight
    or more one-element inputs in interleaved partial sums.  Integers
    accumulate as int64, so int8 bipolar inputs cannot overflow; floats as
    float64.  No clipping.
    """
    arrs = [_as_rows(v) for v in vs]
    if not arrs:
        raise InvalidParameterError("superpose needs at least one vector")
    if any(a.shape != arrs[0].shape for a in arrs):
        raise DimensionError(f"superpose needs equal shapes, got {sorted({a.shape for a in arrs})}")
    stacked = np.stack(arrs)
    dtype = np.int64 if np.issubdtype(stacked.dtype, np.integer) else np.float64
    return stacked.sum(axis=0, dtype=dtype)


def circ_convolve(x, y) -> NDArray[np.float64]:
    """Circular convolution z, with z_j = sum_k y_k * x_{(j-k) mod D}.

    Row-wise along the last axis, broadcasting leading axes; each row is
    bit-identical to convolving that pair alone.  Uses an FFT fast path;
    agrees with the direct double sum to better than 1e-9 absolute for D
    up to a few thousand in double precision.

    The spectra are multiplied as spectrum(x) * spectrum(y), in that order:
    numpy's SIMD complex product rounds by operand order, so a swap changes
    the last bits.  Both spectra are named, which keeps numpy from reusing
    one of them as the output, operands swapped.
    """
    x = _as_rows(x, "x").astype(np.float64)
    y = _as_rows(y, "y").astype(np.float64)
    _check_same_length(x, y)
    spectrum_x = np.fft.rfft(x)
    spectrum_y = np.fft.rfft(y)
    return np.fft.irfft(spectrum_x * spectrum_y, n=x.shape[-1])


def inverse(k) -> NDArray[np.float64]:
    """Exact convolutive inverse of a key hypervector, or of each key in a stack (last axis).

    Inverts the spectrum, so circ_convolve(k, inverse(k)) is the unit impulse
    up to roundoff; requires every spectral component of every key to be
    nonzero.
    """
    k = _as_rows(k, "k").astype(np.float64)
    spectrum = np.fft.rfft(k)
    if np.min(np.abs(spectrum)) <= SPECTRUM_EPS:
        raise SingularKeyError("key has a near-zero spectral component; no exact inverse exists")
    return np.fft.irfft(1.0 / spectrum, n=k.shape[-1])


def random_bipolar(dim: int, seed: SeedSpec) -> NDArray[np.int8]:
    """Random vector with entries drawn equiprobably from {-1, +1}."""
    check_count("dim", dim)
    bits = seed.rng().integers(0, 2, size=dim, dtype=np.int8)
    return (2 * bits - 1).astype(np.int8)


def random_gaussian_key(dim: int, seed: SeedSpec) -> NDArray[np.float64]:
    """Random key with i.i.d. zero-mean Gaussian entries of variance 1/dim.

    This scaling makes circular convolution norm-preserving in expectation.
    """
    check_count("dim", dim)
    return seed.rng().standard_normal(dim) / np.sqrt(dim)
