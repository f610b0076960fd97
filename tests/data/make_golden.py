"""Write the golden JSONL fixtures that ``tests/test_golden.py`` compares against.

    PYTHONPATH=src python tests/data/make_golden.py

Each fixture is ``records_to_jsonl(run_suite(config))`` for one config in
``GOLDEN_CONFIGS``.  Regenerate only when a change is meant to alter the
records; README.md beside this script names the commit the files came from.
"""

from __future__ import annotations

from pathlib import Path

from hvnet.harness import ExperimentConfig, records_to_jsonl, run_suite
from hvnet.network import ExperimentVersion

HERE = Path(__file__).resolve().parent

GOLDEN_CONFIGS = {
    # The acceptance reference suite (tests/test_acceptance.py) at 3 seeds.
    "reference": ExperimentConfig(
        dataset="synth:classes=3,features=10,samples=6000,sep=2.0,seed=11",
        versions=(
            ExperimentVersion("local", classifier_kind="rls"),
            ExperimentVersion("distributed", classifier_kind="rls"),
            ExperimentVersion("distributed", compression=True, classifier_kind="rls"),
            ExperimentVersion("local", classifier_kind="centroid"),
        ),
        agent_counts=(10, 50, 100),
        dim=500,
        lam=1.0,
        kappa=7,
        n_seeds=3,
        master_seed=42,
        train_fraction=0.1,
    ),
    # k-fold, every version kind and both classifiers, scored on the full test fold.
    "kfold": ExperimentConfig(
        dataset="synth:classes=4,features=6,samples=400,sep=2.5,seed=3",
        versions=(
            ExperimentVersion("centralized", classifier_kind="rls"),
            ExperimentVersion("centralized", classifier_kind="centroid"),
            ExperimentVersion("local", classifier_kind="rls"),
            ExperimentVersion("local", classifier_kind="centroid"),
            ExperimentVersion("distributed", classifier_kind="centroid"),
            ExperimentVersion("distributed", classifier_kind="rls"),
            ExperimentVersion("distributed", compression=True, classifier_kind="rls"),
        ),
        agent_counts=(1, 4, 8),
        dim=200,
        lam=0.5,
        kappa=3,
        n_seeds=2,
        master_seed=7,
        split_mode="kfold",
        k_folds=3,
        eval_on_full_test=True,
    ),
}


def fixture_path(name: str) -> Path:
    return HERE / f"golden_{name}.jsonl"


def main() -> None:
    for name, config in GOLDEN_CONFIGS.items():
        path = fixture_path(name)
        path.write_text(records_to_jsonl(run_suite(config)), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
