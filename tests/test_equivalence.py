"""The grouped exchange, the shared per-seed pass and its scoring against their naive forms.

The grouped exchange must equal a per-agent, sorted-order, sequential ``+=``
reference bit for bit, a realization that reuses a SharedPass must return
exactly what one on a fresh pass does, and scoring an agent count's versions
together must equal scoring each version alone.
"""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hvnet.network
from hvnet.classifiers import (
    ClassifierMatrix,
    evaluate,
    evaluate_shards,
    finalize_centroids,
    one_hot,
    train_centroids,
    train_rls,
)
from hvnet.compression import compress, decompress, generate_keys
from hvnet.data import SplitSpec, resolve_dataset, split, synth_blobs
from hvnet.errors import DimensionError, SuiteError
from hvnet.harness import run_suite
from hvnet.hdc import SeedSpec
from hvnet.network import (
    AgentNetwork,
    ModelParams,
    SharedPass,
    exchange_and_aggregate,
    partition,
    run_version,
    run_versions,
)
from hvnet.records import ExperimentConfig, ExperimentVersion
from topology import ring, sorted_neighborhood

# ------------------------------------------------------- grouped exchange


@st.composite
def networks(draw, max_agents=12):
    """Random symmetric networks: isolated agents, partial and full connectivity."""
    n = draw(st.integers(1, max_agents))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, k=1)
    omega = (upper | upper.T).astype(np.int64)
    ids = tuple(int(i) for i in rng.choice(1000, size=n, replace=False))
    return AgentNetwork(omega=omega, agent_ids=ids), rng


def wide_range_weights(rng, shape):
    """Floats spanning many magnitudes, so the order of a sum changes its rounding."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, size=shape)


def naive_sum(arrays, members):
    acc = np.zeros_like(arrays[0])
    for s in members:
        acc += arrays[s]
    return acc


def assert_same_classifiers(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.kind == w.kind
        assert np.array_equal(g.weights, w.weights)
        a, b = g.class_sums, w.class_sums
        assert (a is None) == (b is None)
        assert a is None or (np.array_equal(a, b) and a.dtype == b.dtype)


@settings(max_examples=60, deadline=None)
@given(networks(), st.integers(2, 4), st.integers(1, 6))
def test_grouped_rls_exchange_equals_sequential_reference(net_rng, n_classes, dim):
    net, rng = net_rng
    weights = [wide_range_weights(rng, (n_classes, dim)) for _ in range(net.n_agents)]
    classifiers = [ClassifierMatrix(weights=w, kind="rls") for w in weights]
    got, payload = exchange_and_aggregate(net, classifiers, compression=False)
    want = [
        ClassifierMatrix(weights=naive_sum(weights, sorted_neighborhood(net, p)), kind="rls")
        for p in range(net.n_agents)
    ]
    assert_same_classifiers(got, want)
    assert payload == n_classes * dim


@settings(max_examples=60, deadline=None)
@given(networks(), st.integers(2, 4), st.integers(1, 6))
def test_grouped_centroid_exchange_equals_sequential_reference(net_rng, n_classes, dim):
    net, rng = net_rng
    sums = [rng.integers(-50, 50, size=(n_classes, dim)) for _ in range(net.n_agents)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        classifiers = [finalize_centroids(s) for s in sums]
        got, _ = exchange_and_aggregate(net, classifiers, compression=False)
        want = []
        for p in range(net.n_agents):
            members = sorted_neighborhood(net, p)
            want.append(finalize_centroids(naive_sum(sums, members)))
    assert_same_classifiers(got, want)


@settings(max_examples=25, deadline=None)
@given(networks(max_agents=8), st.integers(2, 3), st.sampled_from(["rls", "centroid"]))
def test_grouped_compressed_exchange_equals_sequential_reference(net_rng, n_classes, kind):
    net, rng = net_rng
    dim = 32
    classifiers = [
        ClassifierMatrix(weights=wide_range_weights(rng, (n_classes, dim)), kind=kind)
        for _ in range(net.n_agents)
    ]
    received = []
    for s, c in enumerate(classifiers):
        keys = generate_keys(net.agent_ids[s], n_classes, dim)
        received.append(decompress(compress(c, keys), keys).weights)
    got, payload = exchange_and_aggregate(net, classifiers, compression=True)
    want = [
        ClassifierMatrix(weights=naive_sum(received, sorted_neighborhood(net, p)), kind=kind)
        for p in range(net.n_agents)
    ]
    assert_same_classifiers(got, want)
    assert payload == dim


@settings(max_examples=40, deadline=None)
@given(networks(), st.booleans())
def test_aggregation_invariant_under_agent_permutation(net_rng, compression):
    net, rng = net_rng
    n = net.n_agents
    classifiers = [
        ClassifierMatrix(weights=wide_range_weights(rng, (3, 16)), kind="rls") for _ in range(n)
    ]
    perm = rng.permutation(n)
    shuffled = AgentNetwork(
        omega=net.omega[np.ix_(perm, perm)], agent_ids=tuple(net.agent_ids[i] for i in perm)
    )
    got, _ = exchange_and_aggregate(shuffled, [classifiers[i] for i in perm], compression)
    want, _ = exchange_and_aggregate(net, classifiers, compression)
    assert_same_classifiers(got, [want[i] for i in perm])


def test_fully_connected_network_sums_once():
    rng = np.random.default_rng(0)
    n = 60
    weights = [wide_range_weights(rng, (4, 10)) for _ in range(n)]
    net = AgentNetwork.fully_connected(n)
    got, _ = exchange_and_aggregate(net, [ClassifierMatrix(w, "rls") for w in weights], False)
    assert all(g is got[0] for g in got)
    assert np.array_equal(got[0].weights, naive_sum(weights, range(n)))


def stacked_sum(stack, members):
    """The exchange's former aggregation: the member rows of one stack, summed from +0."""
    return stack[list(members)].sum(axis=0, initial=0)


@pytest.mark.parametrize("topology", ["full", "ring"])
@pytest.mark.parametrize("exchange", ["rls", "centroid", "compressed"])
def test_exchange_aggregates_equal_the_former_stacked_sum(topology, exchange):
    """``superpose`` per neighborhood equals the former up-front stack and sum.

    np.array_equal counts -0.0 and +0.0 as equal, and the sign of an exact
    zero is the one difference allowed: the former sum started from +0, while
    superpose adds from the first member, so an entry that is -0.0 in every
    member may stay -0.0.  Both signs score alike, so no prediction changes.
    """
    rng = np.random.default_rng(23)
    n, n_classes, dim = 7, 3, 16
    ids = (5, 40, 3, 17, 0, 28, 9)  # not ascending, so the sorted order matters
    net = AgentNetwork(np.ones((n, n), dtype=np.int64), ids) if topology == "full" else ring(ids)
    if exchange == "centroid":
        stack = rng.integers(-50, 50, size=(n, n_classes, dim))
        classifiers = [finalize_centroids(sums) for sums in stack]
    else:
        stack = wide_range_weights(rng, (n, n_classes, dim))
        stack[:, 0, 0] = -0.0
        classifiers = [ClassifierMatrix(weights=w, kind="rls") for w in stack]
    if exchange == "compressed":
        keys = [generate_keys(i, n_classes, dim) for i in ids]
        stack = np.stack([decompress(compress(c, k), k).weights for c, k in zip(classifiers, keys)])
    got, _ = exchange_and_aggregate(net, classifiers, compression=exchange == "compressed")
    for p, aggregate in enumerate(got):
        total = aggregate.class_sums if exchange == "centroid" else aggregate.weights
        want = stacked_sum(stack, sorted_neighborhood(net, p))
        assert total.dtype == want.dtype and np.array_equal(total, want)


# ------------------------------------------------------- shared per-seed pass


@pytest.fixture(scope="module")
def blobs():
    ds = synth_blobs(3, 6, 400, 2.0, SeedSpec(0).child("synth"))
    train_idx, test_idx = split(ds, SplitSpec(seed=SeedSpec(1)))
    return ds, train_idx, test_idx


PARAMS = ModelParams(dim=80, kappa=7, lam=1.0)

ALL_VERSIONS = [
    ExperimentVersion(kind, compression=compression, classifier_kind=classifier)
    for classifier in ("rls", "centroid")
    for kind, compression in (
        ("centralized", False), ("local", False), ("distributed", False), ("distributed", True)
    )
]


@pytest.mark.parametrize("eval_on_full_test", [False, True])
@pytest.mark.parametrize("topology", ["full", "ring"])
def test_shared_pass_matches_standalone_runs(blobs, eval_on_full_test, topology):
    ds, train_idx, test_idx = blobs
    seed = SeedSpec(30)
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n_agents in (1, 4, 9):
            network = ring(range(n_agents)) if topology == "ring" else None
            for version in ALL_VERSIONS:
                args = (version, n_agents, network, eval_on_full_test)
                reused = run_version(shared, *args)
                alone = run_version(SharedPass(ds, train_idx, test_idx, PARAMS, seed), *args)
                assert np.array_equal(reused.per_agent_accuracy, alone.per_agent_accuracy)
                assert reused.n_agents == alone.n_agents
                assert reused.payload_values_per_producer == alone.payload_values_per_producer


@pytest.mark.parametrize("eval_on_full_test", [False, True])
@pytest.mark.parametrize("topology", ["full", "ring"])
@pytest.mark.parametrize(
    "version", ALL_VERSIONS, ids=lambda v: f"{v.label}-{v.classifier_kind}"
)
def test_run_version_scores_like_a_per_agent_loop(blobs, version, topology, eval_on_full_test):
    ds, train_idx, test_idx = blobs
    n_agents, seed = 5, SeedSpec(32)
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, seed)
    network = (ring(range(n_agents)) if topology == "ring"
               else AgentNetwork.fully_connected(n_agents))
    kind = version.classifier_kind
    train_shards = partition(train_idx.size, n_agents, seed.child("train_partition")).shards
    test_shards = partition(test_idx.size, n_agents, seed.child("test_partition")).shards
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run_version(shared, version, n_agents, network, eval_on_full_test)
        if version.kind == "centralized":
            models, payload = shared.fit(kind, [np.arange(train_idx.size)]), 0
        else:
            models, payload = shared.fit(kind, train_shards), 0
            if version.kind == "distributed":
                models, payload = exchange_and_aggregate(network, models, version.compression)
    H_test, y_test = shared.encoded()[1], ds.labels[test_idx]
    if version.kind == "centralized" or eval_on_full_test:
        rows = [np.arange(test_idx.size)] * len(models)
    else:
        rows = test_shards
    want = [evaluate(models[p], H_test[rows[p]], y_test[rows[p]]) for p in range(len(models))]
    assert got.n_agents == len(models)
    assert np.array_equal(got.per_agent_accuracy, want)
    assert got.payload_values_per_producer == payload


@pytest.mark.parametrize("eval_on_full_test", [False, True])
@pytest.mark.parametrize("topology", ["full", "ring"])
@pytest.mark.parametrize("n_agents", [1, 4, 9])
def test_run_versions_equals_one_run_per_version(blobs, n_agents, topology, eval_on_full_test):
    # dim 80 puts L * dim below 1024, where the former kernel stacked models.
    ds, train_idx, test_idx = blobs
    network = ring(range(n_agents)) if topology == "ring" else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(35))
        got = run_versions(shared, ALL_VERSIONS, n_agents, network, eval_on_full_test)
        want = [
            run_version(
                SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(35)),
                version, n_agents, network, eval_on_full_test,
            )
            for version in ALL_VERSIONS
        ]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.per_agent_accuracy.dtype == w.per_agent_accuracy.dtype
        assert g.per_agent_accuracy.tobytes() == w.per_agent_accuracy.tobytes()
        assert g.n_agents == w.n_agents
        assert g.payload_values_per_producer == w.payload_values_per_producer


def test_each_scoring_product_holds_one_model(monkeypatch):
    rng = np.random.default_rng(36)
    n_classes, dim, n_rows, n_models = 3, 80, 300, 5
    models = [
        ClassifierMatrix(weights=rng.standard_normal((n_classes, dim)), kind="rls")
        for _ in range(n_models)
    ]
    H, labels = rng.integers(-7, 8, size=(n_rows, dim)), rng.integers(1, 4, size=n_rows)
    dgemm = hvnet.classifiers.blas.dgemm
    shapes = []

    def recording(alpha, a, b, **kwargs):
        shapes.append((np.shape(a), np.shape(b)))
        return dgemm(alpha, a, b, **kwargs)

    monkeypatch.setattr(hvnet.classifiers.blas, "dgemm", recording)
    got = evaluate_shards([models], H, labels, None)[0]
    monkeypatch.undo()
    assert got == [evaluate(w, H, labels) for w in models]
    blocks = [min(128, n_rows - start) for start in range(0, n_rows, 128)]
    assert sorted(shapes) == sorted(((dim, n_classes), (dim, b)) for b in blocks * n_models)


def test_a_pass_generates_each_agents_keys_once(blobs, monkeypatch):
    ds, train_idx, test_idx = blobs
    generate = hvnet.network.generate_keys
    calls = []

    def counting(agent_id, n_classes, dim):
        calls.append(agent_id)
        return generate(agent_id, n_classes, dim)

    monkeypatch.setattr(hvnet.network, "generate_keys", counting)
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(37))
    versions = [v for v in ALL_VERSIONS if v.compression]  # both classifier kinds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n_agents in (4, 9):
            run_versions(shared, versions, n_agents)
    assert sorted(calls) == list(range(9))
    assert sorted(shared.key_sets) == [(p, ds.n_classes, PARAMS.dim) for p in range(9)]


def test_exchange_with_filled_key_sets_equals_a_fresh_one():
    rng = np.random.default_rng(38)
    ids = (5, 40, 3, 17, 0, 28, 9)
    net = ring(ids)
    classifiers = [
        ClassifierMatrix(weights=wide_range_weights(rng, (3, 32)), kind="rls") for _ in ids
    ]
    key_sets = {}
    first, _ = exchange_and_aggregate(net, classifiers, True, key_sets)
    assert sorted(key_sets) == sorted((i, 3, 32) for i in ids)
    filled, _ = exchange_and_aggregate(net, classifiers, True, key_sets)
    fresh, _ = exchange_and_aggregate(net, classifiers, True)
    assert_same_classifiers(first, fresh)
    assert_same_classifiers(filled, fresh)


@pytest.mark.parametrize("compression", [False, True])
def test_full_test_scores_a_shared_aggregate_once(blobs, monkeypatch, compression):
    ds, train_idx, test_idx = blobs
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(33))
    scored = []

    def counting(models_per_shard, H, labels, shards):
        models_per_shard = [list(models) for models in models_per_shard]
        scored.append([len(models) for models in models_per_shard])
        return evaluate_shards(models_per_shard, H, labels, shards)

    monkeypatch.setattr(hvnet.network, "evaluate_shards", counting)
    version = ExperimentVersion("distributed", compression=compression)
    for n_agents in (1, 4, 9):
        scored.clear()
        result = run_version(shared, version, n_agents, eval_on_full_test=True)
        assert scored == [[1]]  # every agent holds the one aggregate
        assert len(set(result.per_agent_accuracy)) == 1


def counting_fits(monkeypatch):
    """Every classifier that ``SharedPass.fit`` returns, in call order."""
    fit, fitted = SharedPass.fit, []

    def counting(shared, classifier_kind, shards):
        models = fit(shared, classifier_kind, shards)
        fitted.extend(models)
        return models

    monkeypatch.setattr(SharedPass, "fit", counting)
    return fitted


def test_shared_pass_fits_each_local_model_set_once(blobs, monkeypatch):
    # One run_versions call fits each classifier kind's N local models once,
    # however many local and distributed versions read them.
    ds, train_idx, test_idx = blobs
    fitted = counting_fits(monkeypatch)
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(31))
    versions = [v for v in ALL_VERSIONS if v.kind != "centralized"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_versions(shared, versions, 4)
    assert sorted(m.kind for m in fitted) == ["centroid"] * 4 + ["rls"] * 4
    assert shared.encoded() is shared.encoded()


def test_local_models_do_not_outlive_their_call(blobs, monkeypatch):
    ds, train_idx, test_idx = blobs
    fitted = counting_fits(monkeypatch)
    shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(39))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_versions(shared, ALL_VERSIONS, 4)
    refs = [weakref.ref(m) for m in fitted]
    encoded, key_sets = weakref.ref(shared.encoded()[0]), shared.key_sets
    assert len(refs) == 2 * (1 + 4) and key_sets
    del fitted[:], results
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    assert encoded() is shared.encoded()[0]
    assert shared.key_sets is key_sets and len(key_sets) == 4


def _traced_peak(call):
    """The peak of the memory traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reference_suite_holds_no_more_memory_than_per_agent_fits(monkeypatch):
    # The acceptance reference suite at one seed, as perfbench's suite-reference
    # workload runs it, traced once as it runs and once with every agent's model
    # fit and scored alone by the one-shard functions, in this process, so the
    # comparison holds on any Python and numpy.  The slack is well under the
    # 1.2 MB of N = 100 agents' centroid sums (3 x 500 int64 each) held at once.
    config = ExperimentConfig(
        dataset="synth:classes=3,features=10,samples=6000,sep=2.0,seed=11",
        versions=(
            ExperimentVersion("local", classifier_kind="rls"),
            ExperimentVersion("distributed", classifier_kind="rls"),
            ExperimentVersion("distributed", compression=True, classifier_kind="rls"),
            ExperimentVersion("local", classifier_kind="centroid"),
        ),
        agent_counts=(10, 50, 100), dim=500, lam=1.0, kappa=7, n_seeds=1,
        train_fraction=0.1, master_seed=42,
    )
    ds = resolve_dataset(config.dataset)

    def fit_per_agent(kind, H, labels, shards, n_classes, lam):
        if kind == "rls":
            return [train_rls(H[s], one_hot(labels[s], n_classes), lam) for s in shards]
        return [train_centroids(H[s], labels[s], n_classes) for s in shards]

    def score_per_agent(models_per_shard, H, labels, shards):
        return [evaluate_shards([m], H[s], labels[s], None)[0]
                for m, s in zip(models_per_shard, shards)]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_suite(config, dataset=ds)  # any first-call allocations
        batch = _traced_peak(lambda: run_suite(config, dataset=ds))
        monkeypatch.setattr(hvnet.network, "fit_shards", fit_per_agent)
        monkeypatch.setattr(hvnet.network, "evaluate_shards", score_per_agent)
        per_agent = _traced_peak(lambda: run_suite(config, dataset=ds))
    assert batch <= per_agent + 64 * 1024, (batch, per_agent)


@pytest.mark.parametrize("eval_on_full_test", [False, True])
@pytest.mark.parametrize("classifier", ["rls", "centroid"])
def test_isolated_distributed_agents_score_like_local_ones(blobs, classifier, eval_on_full_test):
    # Over an isolated network (omega = I) each raw aggregate is the agent's own model.
    ds, train_idx, test_idx = blobs
    ids = (50, 3, 9, 1, 7, 22)
    isolated = AgentNetwork(omega=np.eye(len(ids), dtype=np.int64), agent_ids=ids)

    def run(kind, network):
        shared = SharedPass(ds, train_idx, test_idx, PARAMS, SeedSpec(34))
        version = ExperimentVersion(kind, classifier_kind=classifier)
        return run_version(shared, version, len(ids), network, eval_on_full_test)

    local, dist = run("local", None), run("distributed", isolated)
    assert dist.per_agent_accuracy.tobytes() == local.per_agent_accuracy.tobytes()


SMALL_SUITE = ExperimentConfig(
    dataset="synth:classes=3,features=5,samples=300,sep=3.0,seed=1",
    versions=(
        ExperimentVersion("local"),
        ExperimentVersion("distributed", classifier_kind="centroid"),
    ),
    agent_counts=(4, 8),
    dim=60,
    n_seeds=3,
    master_seed=5,
)


def test_failure_in_shared_pass_names_seed_version_and_agents(monkeypatch):
    encode = hvnet.network.encode_batch
    calls = []

    def failing_on_third_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # the train encoding of seed index 1
            raise RuntimeError("encoder failed")
        return encode(*args, **kwargs)

    monkeypatch.setattr(hvnet.network, "encode_batch", failing_on_third_call)
    with pytest.raises(SuiteError, match="seed index 1 failed for version=local n_agents=4"):
        run_suite(SMALL_SUITE)


def test_repeated_suites_warn_alike():
    # No process-wide cache: every call redoes, and re-warns, the same work.
    config = ExperimentConfig(
        dataset="synth:classes=6,features=4,samples=200,sep=2.0,seed=4",
        versions=(ExperimentVersion("local", classifier_kind="centroid"),),
        agent_counts=(30,),
        dim=60,
        n_seeds=2,
    )
    counts = []
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_suite(config)
        counts.append(len(caught))
    assert counts[0] > 0 and counts[0] == counts[1]


def test_empty_fold_is_reported_as_suite_error():
    # Three samples in four folds leave one fold empty.
    config = ExperimentConfig(
        dataset="synth:classes=3,features=2,samples=3,sep=2.0,seed=1",
        versions=(ExperimentVersion("centralized"),),
        dim=50,
        n_seeds=1,
        split_mode="kfold",
        k_folds=4,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SuiteError, match=r"seed index 0 failed .* train and test indices "
                                             r"must be non-empty 1-D arrays, got shapes "
                                             r"\[\(3,\), \(0,\)\]") as excinfo:
            run_suite(config)
    # hdc.check_rows reports an empty set as a fault of shape.
    assert type(excinfo.value.__cause__) is DimensionError


def test_a_kfold_failure_names_its_fold():
    # Three samples in four folds leave fold 3 empty; a holdout names no fold.
    config = ExperimentConfig(
        dataset="synth:classes=3,features=2,samples=3,sep=2.0,seed=1",
        versions=(ExperimentVersion("centralized"),),
        dim=50,
        n_seeds=1,
        split_mode="kfold",
        k_folds=4,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SuiteError, match=r"^suite aborted: seed index 0 failed on fold 3 for "
                                             r"version=centralized n_agents=1: train and test "
                                             r"indices must be non-empty"):
            run_suite(config)


def test_run_suite_trains_each_local_model_set_once(monkeypatch):
    fit = hvnet.network.fit_shards
    calls = []

    def counting(*args, **kwargs):
        models = fit(*args, **kwargs)
        calls.extend(m.kind for m in models)
        return models

    monkeypatch.setattr(hvnet.network, "fit_shards", counting)
    config = ExperimentConfig(
        dataset="synth:classes=3,features=5,samples=300,sep=3.0,seed=1",
        versions=(
            ExperimentVersion("local"),
            ExperimentVersion("distributed"),
            ExperimentVersion("distributed", compression=True),
        ),
        agent_counts=(3, 2),
        dim=60,
        n_seeds=2,
    )
    run_suite(config)
    assert calls == ["rls"] * 2 * (3 + 2)  # per seed: one model per agent of each count
