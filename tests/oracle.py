"""The paper's model, written straight from its equations: the tests' tolerance reference.

numpy only, and none of the library's devices: no narrow integers, no row
blocking, no FFT, no float32, no shared pass, no deduplicated
neighbourhoods and no choice of BLAS call.  Every quantity is computed as
its equation states it, one sample, one class row or one agent at a time.
The only inputs taken from hvnet are the seeded draws that the
determinism contract fixes: projection columns, split and fold indices,
shards and keys.  So the oracle agrees with the library to rounding, not
bit for bit; the bit-for-bit references live beside the tests that use them.
"""

import numpy as np

# ------------------------------------------------------------------ encoding


def normalize(samples, train_rows):
    """Min-max scale each feature to [0, 1] by its train rows; a constant feature is 0.5."""
    samples = np.asarray(samples, dtype=np.float64)
    lo = samples[train_rows].min(axis=0)
    span = samples[train_rows].max(axis=0) - lo
    scaled = np.clip((samples - lo) / np.where(span == 0.0, 1.0, span), 0.0, 1.0)
    scaled[:, span == 0.0] = 0.5
    return scaled


def thermometer(values, dim):
    """Bipolar code of each value in [0, 1]: floor(v * dim + 0.5) leading +1s, then -1s."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"feature values {values} lie outside [0, 1]")
    n_plus = np.floor(values * dim + 0.5)
    return np.where(np.arange(dim) < n_plus[..., None], 1, -1).astype(np.int64)


def encode_sums(x, columns):
    """Unclipped activation of one sample: sum over features j of columns[:, j] * code(x_j)."""
    columns = np.asarray(columns, dtype=np.int64)
    return (columns.T * thermometer(x, columns.shape[0])).sum(axis=0)


def encode_rows(X, columns, kappa=None):
    """Activations of every row of X, one sample at a time, clipped to [-kappa, kappa] if given."""
    sums = np.array([encode_sums(x, columns) for x in X], dtype=np.int64)
    return sums if kappa is None else np.clip(sums, -kappa, kappa)


# ----------------------------------------------------------------- readouts


def gauss_solve(A, B):
    """X with A X = B for a matrix B, by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=np.float64)
    B = np.array(B, dtype=np.float64)
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            B[[col, pivot]] = B[[pivot, col]]
        factors = A[col + 1:, col] / A[col, col]
        A[col + 1:, col:] -= np.outer(factors, A[col, col:])
        B[col + 1:] -= np.outer(factors, B[col])
    X = np.zeros_like(B)
    for row in range(n - 1, -1, -1):
        X[row] = (B[row] - A[row, row + 1:] @ X[row + 1:]) / A[row, row]
    return X


def one_hot(labels, n_classes):
    """Indicator rows of 1-based labels."""
    return (np.asarray(labels)[:, None] == np.arange(1, n_classes + 1)).astype(np.float64)


def ridge(H, Y, lam):
    """Primal ridge weights ((H^T H + lam I)^-1 H^T Y)^T, one row per class."""
    H = np.asarray(H, dtype=np.float64)
    return gauss_solve(H.T @ H + lam * np.eye(H.shape[1]), H.T @ Y).T


def class_sums(H, labels, n_classes):
    """Per-class sums of the activation rows, in int64; an absent class sums to zero."""
    H = np.asarray(H, dtype=np.int64)
    return np.array([H[np.asarray(labels) == c].sum(axis=0) for c in range(1, n_classes + 1)])


def unit_rows(sums):
    """Each row scaled to unit norm; a zero row stays zero."""
    sums = np.asarray(sums, dtype=np.float64)
    norms = np.linalg.norm(sums, axis=1, keepdims=True)
    return sums / np.where(norms == 0.0, 1.0, norms)


# ------------------------------------------------------- packing and exchange


def circulant(k):
    """C(k) with C[j, i] = k[(j - i) mod D], so C(k) @ x is the circular convolution of k and x."""
    dim = len(k)
    return np.asarray(k, dtype=np.float64)[(np.arange(dim)[:, None] - np.arange(dim)) % dim]


def circ_convolve(x, y):
    """z_j = sum_i x_i * y_{(j - i) mod D}, as the direct O(D^2) sum."""
    return circulant(x) @ np.asarray(y, dtype=np.float64)


def inverse(k):
    """The exact convolutive inverse of key k: the x with C(k) x = e_0."""
    e0 = np.zeros((len(k), 1))
    e0[0] = 1.0
    return gauss_solve(circulant(k), e0)[:, 0]


def pack(W, keys):
    """One hypervector: the sum over classes l of keys[l] convolved with row W[l]."""
    return sum(circ_convolve(key, w) for key, w in zip(keys, W))


def unpack(packed, keys):
    """Row l of the reconstruction: the packed vector convolved with the inverse of keys[l]."""
    return np.array([circ_convolve(inverse(key), packed) for key in keys])


def neighbourhood_sums(payloads, omega):
    """Agent p's sum of the payloads of every q with omega[p, q] = 1, and of its own."""
    omega = np.asarray(omega)
    return [
        sum(payloads[q] for q in range(len(payloads)) if omega[p, q] or q == p)
        for p in range(len(payloads))
    ]


# ----------------------------------------------------------------- the model


def fit(classifier_kind, H, labels, n_classes, lam):
    """A shard's readout: ridge weights, or its class sums for a centroid classifier."""
    if classifier_kind == "centroid":
        return class_sums(H, labels, n_classes)
    return ridge(H, one_hot(labels, n_classes), lam)


def realize(version, H, labels, n_classes, lam, train_shards, omega, keys):
    """Weights of every agent of a version, fit on train rows H and 1-based ``labels``.

    ``version`` is a (kind, compressed, classifier_kind) triple; the
    centralized version has one agent.  ``keys[p]`` are agent p's
    (n_classes, dim) keys.  Uncompressed centroids are exchanged as class
    sums and made unit rows after summing; compressed ones as unit rows.
    """
    kind, compressed, classifier_kind = version
    shards = [np.arange(len(labels))] if kind == "centralized" else train_shards
    models = [fit(classifier_kind, H[rows], labels[rows], n_classes, lam) for rows in shards]
    if kind == "distributed" and not compressed:
        models = neighbourhood_sums(models, omega)
    if classifier_kind == "centroid":
        models = [unit_rows(m) for m in models]
    if compressed:
        models = neighbourhood_sums([unpack(pack(w, k), k) for w, k in zip(models, keys)], omega)
    return models

def predict(W, H):
    """1-based winner-takes-all class of each row; a tie goes to the lowest class."""
    return np.argmax(np.asarray(H, dtype=np.float64) @ np.asarray(W).T, axis=1) + 1


def accuracy(W, H, labels):
    """Share of rows whose winner-takes-all class is their label."""
    return float(np.mean(predict(W, H) == np.asarray(labels)))


def decided(W, H, rel=1e-9):
    """Whether every row's top score leads the next by more than ``rel`` of its scale.

    A row's scale, max|W| * sum|h|, bounds each of its scores, and any
    score moves by at most that much per unit of relative weight error.
    """
    H = np.asarray(H, dtype=np.float64)
    scores = np.sort(H @ np.asarray(W).T, axis=1)
    lead = scores[:, -1] - scores[:, -2]
    return bool(np.all(lead > rel * np.max(np.abs(W)) * np.abs(H).sum(axis=1)))
