"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 25
    python3 perfbench/steady.py --workload exchange-wide --seeds 1 2 3 4 5 --seconds 25
    python3 perfbench/steady.py --trace --repeat 2 --seeds 42 --workload suite-reference

Each run is a fresh ``perfbench/run.py`` process.  The spread of a metric is
the distance between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark is steady when every end-to-end spread except ``setup_s`` is under
a third of its bound in ``BENCHMARK.json``.  Traced runs of one seed must
repeat every exact counter; ``--repeat`` runs each seed that many times.
``--out`` writes the runs, summaries and provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    for line in lines:
        if line.startswith("output sha256 "):
            result["output_sha256"] = line.split()[-1]
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line.split(" ", 1)[1])
    return result


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); quartiles need at least two values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3 = spread(values)
        share = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                         "q1": q1, "q3": q3, "spread": share, "min": min(values),
                         "max": max(values)}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "WITHIN BOUND" if share <= bound else "TOO WIDE"
            flag = "ok" if share < bound / 3 else flag
        print(f"  {name:<36} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
              f"spread {share:7.2%}  {'' if bound is None else f'bound {bound:.0%}'} {flag}")
    return summary


def main(argv=None) -> int:
    import workloads
    import tracer

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind] if "bound" in m}
    report = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in args.seeds for _ in range(args.repeat)]
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds} x {args.repeat}")
        bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
        if bad:
            ok = False
            print(f"  FAILED checks at seeds {bad}")
        for seed in args.seeds:
            same = [r for r in runs if r["seed"] == seed]
            if len({r.get("output_sha256") for r in same}) != 1:
                ok = False
                print(f"  FAILED: seed {seed} gave different outputs across runs")
            if not args.trace:
                continue
            counters = [{c: r["metrics"][c] for c in tracer.EXACT_COUNTERS} for r in same]
            if any(c != counters[0] for c in counters):
                ok = False
                print(f"  FAILED: seed {seed} gave different exact counters across runs")
        if args.trace:
            seed_free = all(runs[0]["metrics"][c] == r["metrics"][c]
                            for r in runs for c in tracer.EXACT_COUNTERS)
            print(f"  exact counters are {'the same for' if seed_free else 'different across'} "
                  "all seeds")
        report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, bounds)}
        report["provenance"] = runs[-1].get("provenance")
    if args.out:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout.strip()
        report["commit"] = commit or None
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
