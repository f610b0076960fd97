"""Experiment protocol: grid search and multi-seed suites.

Every suite is a pure function of its configuration and master seed, so
rerunning one produces byte-identical report files.  Records hold no
wall-clock timing, which would break that property.
"""

from __future__ import annotations

import numpy as np

from .classifiers import evaluate_many, one_hot, rls_sweep
from .data import (
    Dataset, SplitSpec, load_manifest, load_split_file, normalize, resolve_dataset, split,
)
from .encoding import encode_batch_sums, init_projection
from .errors import InsufficientDataError, SuiteError
from .hdc import SeedSpec, clip
from .network import ModelParams, SharedPass, run_versions
from .records import ExperimentConfig, GridSpec, ResultRecord
# perfbench/tracer.py wraps these names in this module, which calls none of them.
from .classifiers import evaluate, rls_from_gram, train_rls
from .network import run_version
# perfbench/ and tests/test_acceptance.py import these from this module.
from .records import pearson, records_to_jsonl, relative_improvement, report

__all__ = ["grid_search", "run_suite"]


def grid_search(ds: Dataset, grid: GridSpec, seed: SeedSpec) -> tuple[int, float, int]:
    """Exhaustive hyperparameter search with the centralized least-squares model.

    Trains on ``grid.train_fraction`` of a seeded holdout of ``ds`` and
    scores on the rest; returns the (dim, lambda, kappa) with the best
    validation accuracy, ties resolved toward smaller dim, then lambda, then kappa.
    The selected triple is meant to be reused for both classifier kinds
    and every version.  Each (dim, kappa) pair solves for every lambda at
    once with :func:`rls_sweep` and scores them all with
    :func:`evaluate_many`.
    """
    spec = SplitSpec(fraction=grid.train_fraction, seed=seed.child("grid_split"))
    train_idx, val_idx = split(ds, spec)
    ds = normalize(ds, train_idx)
    X_train, y_train = ds.samples[train_idx], ds.labels[train_idx]
    X_val, y_val = ds.samples[val_idx], ds.labels[val_idx]
    Y_train = one_hot(y_train, ds.n_classes)
    lams = sorted(grid.lambda_values)

    best_acc, best = -1.0, None  # every accuracy beats the start
    for d_i, dim in enumerate(sorted(grid.dim_values)):
        proj = init_projection(ds.n_features, dim, seed.child("grid_projection", d_i))
        sums_train = encode_batch_sums(X_train, proj)
        sums_val = encode_batch_sums(X_val, proj)
        for kappa in sorted(grid.kappa_values):
            models = rls_sweep(clip(sums_train, kappa), Y_train, lams)
            for lam, acc in zip(lams, evaluate_many(models, clip(sums_val, kappa), y_val)):
                triple = (int(dim), float(lam), int(kappa))
                if acc > best_acc or (acc == best_acc and triple < best):
                    best_acc, best = acc, triple
    return best


def _run_pass(config: ExperimentConfig, piece, seed_index: int, fold: int | None):
    """Run every cell of ``config`` on one (seed, fold); return the results in cell order.

    ``piece`` is the fold's normalized dataset and its train and test indices;
    ``fold`` is None for a single split, whose pass draws from the bare seed.
    The cells share one :class:`SharedPass`, visited by agent count: one
    :func:`run_versions` call realizes and scores the cells of each count, in
    cell order.  A pure function of its arguments, so passes may run in any
    order.
    """
    seed = SeedSpec(config.master_seed).child("seed", seed_index)
    seed = seed if fold is None else seed.child("fold", fold)
    params = ModelParams(dim=config.dim, kappa=config.kappa, lam=config.lam)
    shared = SharedPass(*piece, params, seed)
    cells = config.cells
    results = [None] * len(cells)
    for n_agents in sorted({n for _, n in cells}):
        group = [c for c in range(len(cells)) if cells[c][1] == n_agents]
        versions = [cells[c][0] for c in group]
        try:
            group_results = run_versions(
                shared, versions, n_agents, eval_on_full_test=config.eval_on_full_test
            )
        except Exception as exc:
            # A failure before any version is realized is the first version's.
            version = getattr(exc, "failed_version", versions[0])
            where = "" if fold is None else f" on fold {fold}"
            raise SuiteError(
                f"suite aborted: seed index {seed_index} failed{where} for "
                f"version={version.label} n_agents={n_agents}: {exc}"
            ) from exc
        for c, result in zip(group, group_results):
            results[c] = result
    return results


def run_suite(config: ExperimentConfig, dataset: Dataset | None = None) -> list[ResultRecord]:
    """Run every (version, agent count) of the config over its seeds.

    All randomness derives from (master_seed, seed index); one failing
    seed aborts the whole suite so averages are never silently partial.
    Maps :func:`_run_pass` over (seed, fold), then reduces in that order.
    """
    manifest = load_manifest(config.manifest) if config.manifest else {}
    raw = resolve_dataset(config.dataset, manifest) if dataset is None else dataset
    split_file = manifest.get(config.dataset, {}).get("split_file")

    # Every split protocol becomes (train, test) index pairs, one per fold.
    if split_file is not None:
        # Predefined splits from the manifest override the seeded protocol.
        pairs = [load_split_file(split_file, raw.n_samples)]
    elif config.split_mode == "holdout":
        pairs = [split(raw, config.split_spec)]
    else:
        folds = split(raw, config.split_spec)
        pairs = [
            (np.sort(np.concatenate(folds[:f] + folds[f + 1:])), folds[f])
            for f in range(len(folds))
        ]

    # Reject an unshardable agent count before encoding; run_versions rejects empty sets.
    most_agents = max(n_agents for _, n_agents in config.cells)
    fewest_rows = max(1, min(min(train.size, test.size) for train, test in pairs))
    if most_agents > fewest_rows:
        raise InsufficientDataError(
            f"dataset {raw.name}: {most_agents} agents cannot each get a non-empty shard; "
            f"the smallest train or test set of a fold has {fewest_rows} rows"
        )
    pieces = [(normalize(raw, train_idx), train_idx, test_idx) for train_idx, test_idx in pairs]
    # passes[i][f][c] is cell c's result on fold f of seed i.
    passes = [[_run_pass(config, piece, i, f if len(pieces) > 1 else None)
               for f, piece in enumerate(pieces)] for i in range(config.n_seeds)]
    return [ResultRecord.of_cell(config, raw.name, c, passes) for c in range(len(config.cells))]
