#!/usr/bin/env bash
# Full benchmark sweep over every dataset in a manifest: per-dataset grid
# search with the centralized least-squares model, then all three versions
# (and the compressed distributed variant) at N in {10, 50, 100}, 10 seeds.
#
# Usage: ./run_benchmark.sh MANIFEST.json OUTPUT_DIR
# Expect multi-hour runtimes on the full 121-dataset collection.

set -euo pipefail

MANIFEST="${1:?usage: run_benchmark.sh MANIFEST.json OUTPUT_DIR}"
OUTDIR="${2:?usage: run_benchmark.sh MANIFEST.json OUTPUT_DIR}"
SEED="${SEED:-0}"
mkdir -p "$OUTDIR"

DATASETS=$(python3 -c "import json,sys; print('\n'.join(sorted(json.load(open(sys.argv[1])))))" "$MANIFEST")

for NAME in $DATASETS; do
    echo "== $NAME: hyperparameter grid =="
    hvnet grid --dataset "$NAME" --manifest "$MANIFEST" --seed "$SEED" \
        --out "$OUTDIR/$NAME.grid.json"
    read -r DIM LAM KAPPA < <(python3 -c "
import json, sys
best = json.load(open(sys.argv[1]))
print(best['dim'], best['lambda'], best['kappa'])
" "$OUTDIR/$NAME.grid.json")

    for CLASSIFIER in rls centroid; do
        echo "== $NAME: $CLASSIFIER suite =="
        hvnet run --dataset "$NAME" --manifest "$MANIFEST" \
            --version centralized --version local --version distributed --compress \
            --classifier "$CLASSIFIER" \
            --agents 10 --agents 50 --agents 100 \
            --seeds 10 --seed "$SEED" \
            --dim "$DIM" --lambda "$LAM" --kappa "$KAPPA" \
            --kfold 4 \
            --out "$OUTDIR/$NAME.$CLASSIFIER.jsonl"
    done
done

echo "== combined table =="
# Only the suites' outputs: a rerun must not read the previous all_records.jsonl.
cat "$OUTDIR"/*.rls.jsonl "$OUTDIR"/*.centroid.jsonl > "$OUTDIR/all_records.jsonl"
hvnet report "$OUTDIR/all_records.jsonl" --format table
