"""Command-line front end: grid search, experiment suites, and reporting."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .classifiers import CLASSIFIER_KINDS
from .data import load_manifest, resolve_dataset
from .errors import HvnetError
from .harness import (
    ExperimentConfig,
    GridSpec,
    grid_search,
    records_from_jsonl,
    report,
    run_suite,
    scatter_export,
)
from .hdc import SeedSpec
from .network import VERSION_KINDS, ExperimentVersion


def _load_dataset(dataset: str, manifest: str | None):
    entries = load_manifest(manifest) if manifest else None
    return resolve_dataset(dataset, entries)


@click.group()
def main():
    """Distributed classification with randomized networks and hypervector exchange."""


@main.command("grid")
@click.option("--dataset", required=True, help="Dataset name or synth:... spec.")
@click.option("--manifest", type=click.Path(exists=True), default=None,
              help="JSON manifest mapping dataset names to CSV files.")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@click.option("--dim", "dims", type=int, multiple=True,
              help="Restrict the dimensionality grid (repeatable).")
@click.option("--lambda", "lams", type=float, multiple=True,
              help="Restrict the ridge grid (repeatable).")
@click.option("--kappa", "kappas", type=int, multiple=True,
              help="Restrict the clipping grid (repeatable).")
@click.option("--train-fraction", type=float, default=0.5, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write the best triple as JSON.")
def grid_cmd(dataset, manifest, seed, dims, lams, kappas, train_fraction, out):
    """Exhaustive (dim, lambda, kappa) search with the centralized RLS model."""
    try:
        spec = SeedSpec(seed)
        ds = _load_dataset(dataset, manifest)
        grid = GridSpec(
            dim_values=tuple(dims) or GridSpec().dim_values,
            lambda_values=tuple(lams) or GridSpec().lambda_values,
            kappa_values=tuple(kappas) or GridSpec().kappa_values,
        )
        dim, lam, kappa = grid_search(ds, grid, spec, train_fraction=train_fraction)
    except (HvnetError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    payload = {"dim": dim, "lambda": lam, "kappa": kappa}
    text = json.dumps(payload, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    click.echo(text)


@main.command("run")
@click.option("--dataset", required=True, help="Dataset name or synth:... spec.")
@click.option("--manifest", type=click.Path(exists=True), default=None)
@click.option("--version", "versions", type=click.Choice(VERSION_KINDS),
              multiple=True, required=True, help="Model version (repeatable).")
@click.option("--compress", is_flag=True, help="Also run distributed with compression.")
@click.option("--classifier", type=click.Choice(CLASSIFIER_KINDS), default="rls",
              show_default=True)
@click.option("--agents", "agent_counts", type=int, multiple=True, default=(10,),
              show_default=True, help="Agent count N (repeatable).")
@click.option("--seeds", type=int, default=10, show_default=True,
              help="Number of random initializations to average.")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@click.option("--dim", type=int, default=500, show_default=True)
@click.option("--lambda", "lam", type=float, default=1.0, show_default=True)
@click.option("--kappa", type=int, default=7, show_default=True)
@click.option("--train-fraction", type=float, default=0.5, show_default=True)
@click.option("--kfold", type=int, default=None,
              help="Score by k-fold cross-validation instead of a holdout.")
@click.option("--full-test", is_flag=True,
              help="Evaluate every agent on the full test set instead of its shard.")
@click.option("--allow-off-grid", is_flag=True,
              help="Accept hyperparameters outside the default search ranges.")
@click.option("--out", type=click.Path(), default=None, help="Output file (default stdout).")
@click.option("--format", "fmt", type=click.Choice(("jsonl", "csv", "table")),
              default="jsonl", show_default=True)
def run_cmd(dataset, manifest, versions, compress, classifier, agent_counts, seeds,
            seed, dim, lam, kappa, train_fraction, kfold, full_test, allow_off_grid,
            out, fmt):
    """Run an experiment suite and emit one result record per version and agent count."""
    version_objs = [
        ExperimentVersion(kind=v, compression=False, classifier_kind=classifier)
        for v in versions
    ]
    if compress:
        if "distributed" not in versions:
            raise click.ClickException("--compress requires --version distributed")
        version_objs.append(
            ExperimentVersion(kind="distributed", compression=True, classifier_kind=classifier)
        )
    try:
        config = ExperimentConfig(
            dataset=dataset,
            versions=tuple(version_objs),
            agent_counts=tuple(agent_counts),
            dim=dim,
            lam=lam,
            kappa=kappa,
            n_seeds=seeds,
            master_seed=seed,
            split_mode="holdout" if kfold is None else "kfold",
            train_fraction=train_fraction,
            k_folds=4 if kfold is None else kfold,
            eval_on_full_test=full_test,
            manifest=manifest,
            allow_off_grid=allow_off_grid,
        )
        records = run_suite(config)
        rendered = report(records, fmt=fmt, out=out)
    except (HvnetError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    if out is None:
        click.echo(rendered, nl=False)
    else:
        click.echo(f"wrote {len(records)} records to {out}")


@main.command("report")
@click.argument("records_path", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(("jsonl", "csv", "table")),
              default="table", show_default=True)
@click.option("--scatter", default=None, metavar="VER_A:VER_B",
              help="Emit a scatter pairing instead, e.g. local:centralized.")
@click.option("--out", type=click.Path(), default=None, help="Output file (default stdout).")
def report_cmd(records_path, fmt, scatter, out):
    """Re-render a JSONL record stream as a table, CSV, or scatter export."""
    try:
        records = records_from_jsonl(records_path)
        if scatter:
            version_a, _, version_b = scatter.partition(":")
            if not version_a or not version_b:
                raise click.ClickException("--scatter expects VER_A:VER_B")
            rendered = scatter_export(records, version_a, version_b, out=out)
        else:
            rendered = report(records, fmt=fmt, out=out)
    except (HvnetError, OSError) as exc:
        raise click.ClickException(str(exc)) from exc
    if out is None:
        click.echo(rendered, nl=False)


if __name__ == "__main__":
    sys.exit(main())
