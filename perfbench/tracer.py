"""Per-layer tracing from outside the program.

Each public hvnet function the workloads reach is replaced, for the length of
each ``with tracer:`` block, by a wrapper bound under the same name in the
module where its caller looks it up (``train_rls`` separately in
``hvnet.network`` and ``hvnet.harness``, ``circ_convolve`` in
``hvnet.compression``, and so on).  A timed wrapper records one span (name,
start, end, parent, group); a counted wrapper only bumps a counter.  All
spans of one ``run_version`` realization share its group id.  Spans stay in
memory until :meth:`Tracer.write`.

Counters that need a look at the arguments (rows, distinct inputs, flops)
are taken after the wrapped call returns, inside a ``trace.observe`` span, so
that their cost is charged to no layer.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

import hvnet.classifiers
import hvnet.compression
import hvnet.encoding
import hvnet.harness
import hvnet.hdc
import hvnet.network

# (namespace the caller looks the name up in, name, span name).
TIMED = (
    (hvnet.harness, "split", "data.split"),
    (hvnet.harness, "normalize", "data.normalize"),
    (hvnet.harness, "run_version", "network.run_version"),
    (hvnet.harness, "init_projection", "encoding.init_projection"),
    (hvnet.harness, "encode_batch_sums", "encoding.encode_batch_sums"),
    (hvnet.harness, "one_hot", "classifiers.one_hot"),
    (hvnet.harness, "train_rls", "classifiers.train_rls"),
    (hvnet.harness, "rls_from_gram", "classifiers.rls_from_gram"),
    (hvnet.harness, "evaluate", "classifiers.evaluate"),
    (hvnet.network, "partition", "network.partition"),
    (hvnet.network, "exchange_and_aggregate", "network.exchange_and_aggregate"),
    (hvnet.network, "init_projection", "encoding.init_projection"),
    (hvnet.network, "encode_batch", "encoding.encode_batch"),
    (hvnet.network, "one_hot", "classifiers.one_hot"),
    (hvnet.network, "train_rls", "classifiers.train_rls"),
    (hvnet.network, "train_centroids", "classifiers.train_centroids"),
    (hvnet.network, "finalize_centroids", "classifiers.finalize_centroids"),
    (hvnet.network, "evaluate", "classifiers.evaluate"),
    (hvnet.network, "generate_keys", "compression.generate_keys"),
    (hvnet.network, "compress", "compression.compress"),
    (hvnet.network, "decompress", "compression.decompress"),
    (hvnet.encoding, "encode_batch_sums", "encoding.encode_batch_sums"),
    (hvnet.classifiers, "rls_from_gram", "classifiers.rls_from_gram"),
    (hvnet.classifiers, "finalize_centroids", "classifiers.finalize_centroids"),
    (hvnet.classifiers, "predict_batch", "classifiers.predict_batch"),
)

# (namespace, name, counter).  hdc primitives are counted, not timed: their
# time stays in the span of the layer that calls them.
COUNTED = (
    (hvnet.compression, "circ_convolve", "hdc.convolve_calls"),
    (hvnet.compression, "inverse", "hdc.inverse_calls"),
    (hvnet.hdc.SeedSpec, "rng", "hdc.rng_streams"),
    (hvnet.classifiers.sla, "cho_factor", "classifiers.factor_flops"),
)

FITS = {"classifiers.train_rls", "classifiers.rls_from_gram", "classifiers.train_centroids"}

# Layer metric -> spans whose self time it sums.
SELF_TIMES = {
    "encoding.encode_s": ("encoding.encode_batch_sums",),
    "encoding.clip_s": ("encoding.encode_batch",),
    "encoding.project_s": ("encoding.init_projection",),
    "classifiers.fit_s": (
        "classifiers.train_rls", "classifiers.rls_from_gram", "classifiers.train_centroids",
        "classifiers.finalize_centroids", "classifiers.one_hot",
    ),
    "classifiers.eval_s": ("classifiers.evaluate", "classifiers.predict_batch"),
    "compression.keygen_s": ("compression.generate_keys",),
    "compression.pack_s": ("compression.compress",),
    "compression.unpack_s": ("compression.decompress",),
    "network.exchange_s": ("network.exchange_and_aggregate",),
    "network.partition_s": ("network.partition",),
    "network.run_version_s": ("network.run_version",),
    "harness.self_s": ("harness.run_suite", "harness.grid_search"),
    "data.prep_s": ("data.split", "data.normalize"),
}

# Counters that must repeat exactly between runs of one workload and seed.
EXACT_COUNTERS = (
    "encoding.encode_calls", "encoding.rows", "encoding.unique_ratio", "encoding.out_bytes",
    "classifiers.fit_calls", "classifiers.fit_unique_ratio", "classifiers.factor_flops",
    "classifiers.eval_calls", "classifiers.eval_rows",
    "compression.keygen_calls", "compression.keygen_unique_ratio", "compression.pack_calls",
    "network.exchange_calls", "network.aggregate_terms",
    "hdc.convolve_calls", "hdc.inverse_calls", "hdc.rng_streams",
)

RATIOS = {  # metric -> (distinct-input set, calls counter)
    "encoding.unique_ratio": ("encoding", "encoding.encode_calls"),
    "classifiers.fit_unique_ratio": ("fit", "classifiers.fit_calls"),
    "compression.keygen_unique_ratio": ("keygen", "compression.keygen_calls"),
}

UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in EXACT_COUNTERS},
    **{name: "ratio" for name in RATIOS},
    "encoding.out_bytes": "B",
    "classifiers.factor_flops": "flop",
}

OBSERVE = "trace.observe"


def binding(target, name):
    """The object bound to ``name``; a class attribute comes unbound, from ``__dict__``."""
    return target.__dict__[name] if isinstance(target, type) else getattr(target, name)


def wrapped_bindings() -> list[tuple[object, str, object]]:
    """(namespace, name, bound object) for every name a Tracer wraps."""
    return [(t, n, binding(t, n)) for t, n, _ in TIMED + COUNTED]


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.data)
    return h.hexdigest()


class Tracer:
    """Wraps hvnet's functions inside ``with`` blocks; collects spans and counters per sample."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, group, start, end]
        self.sample_starts: list[int] = []  # index of each sample's first span
        self._stack: list[int] = []
        self._last_pair = self._last_pair_digest = None
        self._originals: list[tuple[object, str, object]] = []
        self._observers = {
            "encoding.encode_batch_sums": self._on_encode,
            "classifiers.evaluate": self._on_evaluate,
            "compression.generate_keys": self._on_keygen,
            "compression.compress": self._on_pack,
            "network.exchange_and_aggregate": self._on_exchange,
            **{name: self._on_fit for name in FITS},
        }
        self._reset_counts()

    def _reset_counts(self):
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)

    # -- installing and removing the wrappers --------------------------------

    def __enter__(self) -> "Tracer":
        for target, name, span_name in TIMED:
            self._patch(target, name, self._timed(span_name, getattr(target, name)))
        for target, name, counter in COUNTED:
            original = getattr(target, name)
            if counter == "classifiers.factor_flops":
                wrapper = self._factor(original)
            else:
                wrapper = self._counted(counter, original)
            self._patch(target, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._originals:
            target, name, original = self._originals.pop()
            setattr(target, name, original)
        return False

    def _patch(self, target, name, wrapper):
        self._originals.append((target, name, binding(target, name)))
        setattr(target, name, wrapper)

    # -- spans -----------------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.index = tracer._open(name)

            def __exit__(self, *exc):
                tracer._close(self.index)
                return False

        return _Span()

    def start_sample(self):
        self.sample_starts.append(len(self.spans))
        self._reset_counts()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if name == "network.run_version" or parent < 0:
            group = index
        else:
            group = self.spans[parent][2]
        self.spans.append([name, parent, group, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def _in_fit(self) -> bool:
        return any(self.spans[i][0] in FITS for i in self._stack)

    def _timed(self, span_name: str, fn):
        observer = self._observers.get(span_name)
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested_fit = span_name in FITS and self._in_fit()
            index = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observer is not None and not nested_fit:
                observed = self._open(OBSERVE)
                observer(span_name, signature.bind(*args, **kwargs).arguments, result)
                self._close(observed)
            return result

        return wrapper

    def _counted(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factor(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.counts["classifiers.factor_flops"] += np.shape(a)[0] ** 3 / 3
            return fn(a, *args, **kwargs)

        return wrapper

    # -- observers: counters that need the arguments ---------------------------

    def _on_encode(self, _, a, result):
        X, proj = np.asarray(a["X"]), a["proj"]
        self.counts["encoding.encode_calls"] += 1
        self.counts["encoding.rows"] += X.shape[0]
        self.counts["encoding.out_bytes"] += result.size * result.itemsize
        self.distinct["encoding"].add((proj.seed, proj.dim, digest(X)))

    def _on_fit(self, name, a, _):
        self.counts["classifiers.fit_calls"] += 1
        if name == "classifiers.train_rls":
            key = ("rls", digest(a["H"], a["Y"]), a["lam"])
        elif name == "classifiers.rls_from_gram":
            # grid_search hands one (gram, cross) pair to every lambda: digest it once.
            pair = (a["gram"], a["cross"])
            if self._last_pair is None or any(x is not y for x, y in zip(pair, self._last_pair)):
                self._last_pair, self._last_pair_digest = pair, digest(*pair)
            key = ("rls-gram", self._last_pair_digest, a["lam"])
        else:
            key = ("centroid", digest(a["H"], a["labels"]), a["n_classes"])
        self.distinct["fit"].add(key)

    def _on_evaluate(self, _, a, __):
        self.counts["classifiers.eval_calls"] += 1
        self.counts["classifiers.eval_rows"] += np.shape(a["H"])[0]

    def _on_keygen(self, _, a, __):
        self.counts["compression.keygen_calls"] += 1
        self.distinct["keygen"].add((a["agent_id"], a["n_classes"], a["dim"]))

    def _on_pack(self, _, __, ___):
        self.counts["compression.pack_calls"] += 1

    def _on_exchange(self, _, a, __):
        net = a["network"]
        self.counts["network.exchange_calls"] += 1
        members = (np.asarray(net.omega) != 0) | np.eye(net.n_agents, dtype=bool)
        self.counts["network.aggregate_terms"] += int(members.sum())

    # -- results -----------------------------------------------------------------

    def sample_metrics(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer metrics of the sample started last, and each layer's total self time."""
        first = self.sample_starts[-1]
        spans = self.spans[first:]
        self_time: defaultdict[str, float] = defaultdict(float)
        for name, parent, _, start, end in spans:
            self_time[name] += end - start
            if parent >= first:
                self_time[self.spans[parent][0]] -= end - start
        out = {metric: sum(self_time[n] for n in names) for metric, names in SELF_TIMES.items()}
        for counter in EXACT_COUNTERS:
            out[counter] = self.counts[counter]
        for metric, (key, calls) in RATIOS.items():
            calls = self.counts[calls]
            out[metric] = len(self.distinct[key]) / calls if calls else 0.0
        layers: defaultdict[str, float] = defaultdict(float)
        for name, seconds in self_time.items():
            layers[name.split(".", 1)[0]] += seconds
        return out, dict(layers)

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, parent, group, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, group, start, end) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "parent": parent, "group": group,
                     "start": start, "end": end}
                ) + "\n")

