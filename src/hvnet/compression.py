"""Lossy classifier compression with holographic reduced representations.

An (n_classes, dim) classifier is packed into a single dim-length vector
by convolving each row with a per-class random key and superposing the
results.  Decompression convolves with key inverses; the residual error is
crosstalk from the other rows.  Keys are regenerated from the producing
agent's ID alone, so no key material ever travels.
"""

from __future__ import annotations

import struct
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
    WireFormatError,
)
from .hdc import (
    SeedSpec,
    check_count,
    check_seed,
    circ_convolve,
    inverse,
    random_gaussian_key,
    superpose,
)

__all__ = [
    "CompressedClassifier",
    "KeySet",
    "compress",
    "compression_fidelity",
    "decompress",
    "from_bytes",
    "generate_keys",
    "to_bytes",
]

MAGIC = b"HRRC"
WIRE_VERSION = 2
# magic, version, agent id, n_classes, dim
_HEADER = struct.Struct("<4sHQII")

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
    """A whole classifier packed into one hypervector; its fields must fit the wire header."""

    w: np.ndarray  # (dim,) float64
    agent_id: int
    n_classes: int

    def __post_init__(self):
        check_seed("agent_id", self.agent_id)
        check_count("n_classes", self.n_classes, bits=32)
        shape = np.shape(self.w)
        if len(shape) != 1 or not 1 <= shape[0] < 2**32:
            raise InvalidParameterError(f"w must be 1-D with 1 to 2**32 - 1 values, not {shape}")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def generate_keys(agent_id: int, n_classes: int, dim: int) -> KeySet:
    """Regenerate an agent's key set from its ID alone.

    Every party that knows ``agent_id`` (and the shared n_classes, dim)
    reproduces bit-identical keys.  The ID must fit the wire header's u64.
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


def compress(w_out: ClassifierMatrix, keys: KeySet) -> CompressedClassifier:
    """Superpose the key-bound classifier rows into a single hypervector."""
    if w_out.n_classes != keys.n_classes or w_out.dim != keys.dim:
        raise DimensionError(
            f"classifier is {w_out.n_classes}x{w_out.dim}, "
            f"keys are {keys.n_classes}x{keys.dim}"
        )
    w = superpose(circ_convolve(keys.keys, w_out.weights))
    return CompressedClassifier(w=w, agent_id=keys.agent_id, n_classes=keys.n_classes)


def decompress(c: CompressedClassifier, keys: KeySet, kind: str = "rls") -> ClassifierMatrix:
    """Approximately reconstruct each row by convolving with its key's exact inverse.

    With more than one class the reconstruction carries crosstalk noise
    from the other key-row pairs; it is exact only for n_classes == 1.
    The payload must come from the agent whose keys are given.
    """
    if c.agent_id != keys.agent_id:
        raise ProtocolError(
            f"payload of agent {c.agent_id} cannot be unpacked with agent {keys.agent_id}'s keys"
        )
    if c.n_classes != keys.n_classes or c.dim != keys.dim:
        raise DimensionError("compressed payload and key set disagree on shape")
    return ClassifierMatrix(weights=circ_convolve(c.w, inverse(keys.keys)), kind=kind)


def compression_fidelity(w_out: ClassifierMatrix, keys: KeySet) -> NDArray[np.float64]:
    """Per-class cosine between original and reconstructed rows; zero rows give 0.0.

    The cosine is set by the class count L, not improved by ``dim``: the
    packing rate is L:1 at every dimension, so the crosstalk from the other
    L - 1 rows keeps a fixed share of each reconstructed row.  It even falls
    slowly as ``dim`` grows, because small spectral components of a Gaussian
    key amplify the crosstalk under the exact inverse.
    """
    orig = w_out.weights.astype(np.float64)
    recon = decompress(compress(w_out, keys), keys, kind=w_out.kind).weights
    norms = np.linalg.norm(orig, axis=1) * np.linalg.norm(recon, axis=1)
    dots = np.einsum("ij,ij->i", orig, recon)
    return np.divide(dots, norms, out=np.zeros_like(norms), where=norms != 0.0)


def to_bytes(c: CompressedClassifier) -> bytes:
    """Serialize with the HRRC wire header, payload as little-endian float64."""
    header = _HEADER.pack(MAGIC, WIRE_VERSION, c.agent_id, c.n_classes, c.dim)
    return header + np.ascontiguousarray(c.w, dtype="<f8").tobytes()


def from_bytes(buf: bytes) -> CompressedClassifier:
    """Parse an HRRC payload, validating its header and length."""
    if len(buf) < _HEADER.size:
        raise WireFormatError(f"buffer too short for header: {len(buf)} bytes")
    magic, version, agent_id, n_classes, dim = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported version {version}")
    if dim < 1 or n_classes < 1:
        raise WireFormatError(f"header has dim={dim}, n_classes={n_classes}; both must be >= 1")
    expected = _HEADER.size + 8 * dim
    if len(buf) != expected:
        raise WireFormatError(f"expected {expected} bytes, got {len(buf)}")
    w = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size).astype(np.float64)
    return CompressedClassifier(w=w, agent_id=agent_id, n_classes=n_classes)
