"""Lossy classifier compression with holographic reduced representations.

An (n_classes, dim) classifier is packed into a single dim-length vector
by convolving each row with a per-class random key and superposing the
results.  Decompression convolves with key inverses; the residual error is
crosstalk from the other rows.  Keys are regenerated from the producing
agent's ID alone, so no key material ever travels.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .classifiers import ClassifierMatrix
from .errors import (
    DimensionError,
    InvalidParameterError,
    KeyCorrelationWarning,
    ProtocolError,
    SingularKeyError,
)
from .hdc import (
    SeedSpec,
    check_count,
    check_real,
    check_seed,
    circ_convolve,
    inverse,
    random_gaussian_key,
)

__all__ = [
    "CompressedClassifier",
    "KeySet",
    "compress",
    "decompress",
    "generate_keys",
    "pack",
    "unpack",
]

# Pairwise key cosines should stay below this at dim >= 512; checked at
# generation because decompression quality degrades with correlated keys.
_KEY_COSINE_BOUND = 0.2


@dataclass(frozen=True)
class KeySet:
    """Per-class key hypervectors of one agent."""

    agent_id: int
    keys: np.ndarray  # (n_classes, dim) float64

    @property
    def n_classes(self) -> int:
        return self.keys.shape[0]

    @property
    def dim(self) -> int:
        return self.keys.shape[1]


@dataclass(frozen=True)
class CompressedClassifier:
    """One agent's classifier packed into one hypervector; ``agent_id`` lies in [0, 2**64)."""

    w: np.ndarray  # (dim,) float64
    agent_id: int
    n_classes: int

    def __post_init__(self):
        check_seed("agent_id", self.agent_id)
        check_count("n_classes", self.n_classes)
        if not isinstance(self.w, np.ndarray) or self.w.ndim != 1 or self.w.size < 1:
            raise InvalidParameterError(
                f"w must be a non-empty 1-D numpy array, got {type(self.w).__name__} "
                f"of shape {np.shape(self.w)}"
            )

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def generate_keys(agent_id: int, n_classes: int, dim: int) -> KeySet:
    """Regenerate an agent's key set from its ID alone.

    Every party that knows ``agent_id`` (and the shared n_classes, dim)
    reproduces bit-identical keys.  The ID is a seed, so it lies in [0, 2**64).
    """
    check_seed("agent_id", agent_id)
    check_count("n_classes", n_classes)  # random_gaussian_key checks dim
    base = SeedSpec(agent_id)
    keys = np.stack(
        [random_gaussian_key(dim, base.child("class_key", i)) for i in range(n_classes)]
    )
    if dim >= 512 and n_classes >= 2:
        norms = np.linalg.norm(keys, axis=1)
        cosines = (keys / norms[:, None]) @ (keys / norms[:, None]).T
        np.fill_diagonal(cosines, 0.0)
        worst = float(np.max(np.abs(cosines)))
        if worst >= _KEY_COSINE_BOUND:
            warnings.warn(
                f"key set for agent {agent_id} has pairwise |cosine| {worst:.3f}",
                KeyCorrelationWarning,
                stacklevel=2,
            )
    return KeySet(agent_id=agent_id, keys=keys)


def pack(weights, keys) -> NDArray[np.float64]:
    """Pack a stack of (..., n_classes, dim) classifiers into (..., dim) hypervectors.

    Each class row is bound to its own key (same shape as ``weights``) by
    circular convolution, and the bound rows are summed over the class axis
    in row order.  Every classifier of a stack packs bit for bit as it does
    alone.
    """
    weights, keys = check_real("weights", weights), check_real("keys", keys)
    if weights.shape != keys.shape or weights.ndim < 2:
        raise DimensionError(f"keys of shape {keys.shape} cannot bind weights of shape "
                             f"{weights.shape}; both need a class axis and a component axis")
    return circ_convolve(keys, weights).sum(axis=-2)


def unpack(packed, keys, agent_ids) -> NDArray[np.float64]:
    """Unpack (n, dim) hypervectors with their producers' (n, n_classes, dim) keys.

    Row l of reconstruction i is ``packed[i]`` convolved with the exact
    inverse of ``keys[i, l]``; each comes out bit for bit as it does alone.
    ``agent_ids`` names the producer of each hypervector, so that a key
    without an exact inverse is reported with its agent.
    """
    packed, keys = check_real("packed", packed), check_real("keys", keys)
    if packed.ndim != 2 or keys.ndim != 3 or not len(packed) == len(keys) == len(agent_ids):
        raise DimensionError(f"need (n, dim) hypervectors, (n, n_classes, dim) keys and n agent "
                             f"ids, got shapes {packed.shape} and {keys.shape} and "
                             f"{len(agent_ids)} ids")
    try:
        inverses = inverse(keys)
    except SingularKeyError:
        for agent_id, agent_keys in zip(agent_ids, keys):
            try:
                inverse(agent_keys)
            except SingularKeyError as exc:
                raise SingularKeyError(f"agent {agent_id}: {exc}") from None
        raise
    return circ_convolve(packed[:, None, :], inverses)


def compress(w_out: ClassifierMatrix, keys: KeySet) -> CompressedClassifier:
    """Superpose the key-bound classifier rows into a single hypervector."""
    if w_out.n_classes != keys.n_classes or w_out.dim != keys.dim:
        raise DimensionError(
            f"classifier is {w_out.n_classes}x{w_out.dim}, "
            f"keys are {keys.n_classes}x{keys.dim}"
        )
    w = pack(w_out.weights, keys.keys)
    return CompressedClassifier(w=w, agent_id=keys.agent_id, n_classes=keys.n_classes)


def decompress(c: CompressedClassifier, keys: KeySet) -> ClassifierMatrix:
    """Approximately reconstruct each row by convolving with its key's exact inverse.

    With more than one class the reconstruction carries crosstalk noise
    from the other key-row pairs; it is exact only for n_classes == 1.
    The payload must come from the agent whose keys are given.  The result
    is labelled "rls" whatever kind was packed: a payload holds only weights.
    """
    if c.agent_id != keys.agent_id:
        raise ProtocolError(
            f"payload of agent {c.agent_id} cannot be unpacked with agent {keys.agent_id}'s keys"
        )
    if c.n_classes != keys.n_classes or c.dim != keys.dim:
        raise DimensionError("compressed payload and key set disagree on shape")
    weights = unpack(c.w[None], keys.keys[None], (keys.agent_id,))[0]
    return ClassifierMatrix(weights=weights, kind="rls")
