"""Command-line front end: grid search, experiment suites, and reporting."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .data import load_manifest, resolve_dataset
from .errors import HvnetError
from .hdc import SeedSpec
from .records import (
    CLASSIFIER_KINDS, REPORT_FORMATS, VERSION_KINDS, ExperimentConfig, ExperimentVersion, GridSpec,
    records_from_jsonl, report, scatter_export,
)


class _Hvnet(click.Group):
    """Reports a library or file error as ``Error: ...`` with exit status 1, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (HvnetError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Hvnet)
def main():
    """Distributed classification with randomized networks and hypervector exchange."""


@main.command("grid")
@click.option("--dataset", required=True, help="Dataset name or synth:... spec.")
@click.option("--manifest", type=click.Path(exists=True), default=None,
              help="JSON manifest mapping dataset names to CSV files.")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@click.option("--dim", "dim_values", type=int, multiple=True, default=GridSpec.dim_values,
              help="Restrict the dimensionality grid (repeatable).")
@click.option("--lambda", "lambda_values", type=float, multiple=True,
              default=GridSpec.lambda_values, help="Restrict the ridge grid (repeatable).")
@click.option("--kappa", "kappa_values", type=int, multiple=True,
              default=GridSpec.kappa_values, help="Restrict the clipping grid (repeatable).")
@click.option("--train-fraction", type=float, default=GridSpec.train_fraction, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write the best triple as JSON.")
def grid_cmd(dataset, manifest, seed, out, **settings):
    """Exhaustive (dim, lambda, kappa) search with the centralized RLS model."""
    from .harness import grid_search  # here, so that the other commands never load scipy
    grid, spec = GridSpec(**settings), SeedSpec(seed)
    ds = resolve_dataset(dataset, load_manifest(manifest) if manifest else None)
    dim, lam, kappa = grid_search(ds, grid, spec)
    text = json.dumps({"dim": dim, "lambda": lam, "kappa": kappa}, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    click.echo(text)


@main.command("run")
@click.option("--dataset", required=True, help="Dataset name or synth:... spec.")
@click.option("--manifest", type=click.Path(exists=True), default=None)
@click.option("--version", "versions", type=click.Choice(VERSION_KINDS),
              multiple=True, required=True, help="Model version (repeatable).")
@click.option("--compress", is_flag=True, help="Also run distributed with compression.")
@click.option("--classifier", type=click.Choice(CLASSIFIER_KINDS),
              default=ExperimentVersion.classifier_kind, show_default=True)
@click.option("--agents", "agent_counts", type=int, multiple=True,
              default=ExperimentConfig.agent_counts, show_default=True,
              help="Agent count N (repeatable).")
@click.option("--seeds", "n_seeds", type=int, default=ExperimentConfig.n_seeds,
              show_default=True, help="Number of random initializations to average.")
@click.option("--seed", "master_seed", type=int, default=ExperimentConfig.master_seed,
              show_default=True, help="Master seed.")
@click.option("--dim", type=int, default=ExperimentConfig.dim, show_default=True)
@click.option("--lambda", "lam", type=float, default=ExperimentConfig.lam, show_default=True)
@click.option("--kappa", type=int, default=ExperimentConfig.kappa, show_default=True)
@click.option("--train-fraction", type=float, default=ExperimentConfig.train_fraction,
              show_default=True)
@click.option("--kfold", type=int, default=None,
              help="Score by k-fold cross-validation instead of a holdout.")
@click.option("--full-test", "eval_on_full_test", is_flag=True,
              help="Evaluate every agent on the full test set instead of its shard.")
@click.option("--allow-off-grid", is_flag=True,
              help="Accept hyperparameters outside the default search ranges.")
@click.option("--out", type=click.Path(), default=None, help="Output file (default stdout).")
@click.option("--format", "fmt", type=click.Choice(tuple(REPORT_FORMATS)),
              default="jsonl", show_default=True)
def run_cmd(versions, compress, classifier, kfold, out, fmt, **settings):
    """Run an experiment suite and emit one result record per version and agent count."""
    from .harness import run_suite  # here, so that the other commands never load scipy
    version_objs = [ExperimentVersion(v, classifier_kind=classifier) for v in versions]
    if compress:
        if "distributed" not in versions:
            raise click.ClickException("--compress requires --version distributed")
        version_objs.append(ExperimentVersion("distributed", True, classifier))
    config = ExperimentConfig(
        versions=tuple(version_objs),
        split_mode=ExperimentConfig.split_mode if kfold is None else "kfold",
        k_folds=ExperimentConfig.k_folds if kfold is None else kfold,
        **settings,
    )
    records = run_suite(config)
    rendered = report(records, fmt=fmt, out=out)
    if out is None:
        click.echo(rendered, nl=False)
    else:
        click.echo(f"wrote {len(records)} records to {out}")


@main.command("report")
@click.argument("records_path", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(tuple(REPORT_FORMATS)),
              default="table", show_default=True)
@click.option("--scatter", default=None, metavar="VER_A:VER_B",
              help="Emit a scatter pairing instead, e.g. local:centralized.")
@click.option("--out", type=click.Path(), default=None, help="Output file (default stdout).")
def report_cmd(records_path, fmt, scatter, out):
    """Re-render a JSONL record stream as a table, CSV, or scatter export."""
    records = records_from_jsonl(records_path)
    if scatter:
        version_a, _, version_b = scatter.partition(":")
        if not version_a or not version_b:
            raise click.ClickException("--scatter expects VER_A:VER_B")
        rendered = scatter_export(records, version_a, version_b, out=out)
    else:
        rendered = report(records, fmt=fmt, out=out)
    if out is None:
        click.echo(rendered, nl=False)


if __name__ == "__main__":
    sys.exit(main())
