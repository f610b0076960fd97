"""Self-test of the benchmark on reduced-size copies of its workloads.

    python3 perfbench/selftest.py

For each workload it checks that a plain run emits every end-to-end metric
of BENCHMARK.json with its unit, that a traced run emits every per-layer
metric with its unit, that traced calls return the same records as plain
ones and repeat their exact counters, and that every wrapped name is bound
to its original again afterwards.  It also checks that the benchmark fails,
printing no result, in a directory that holds only BENCHMARK.json and the
benchmark.  Exits 1 on the first workload with a failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import run
import tracer as tracing
import workloads
from hvnet.harness import GridSpec

BENCH = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
SEED = 5
SECONDS = 0.1


def reduced() -> list:
    """Small versions of every workload, with no golden output to match."""
    w = workloads.WORKLOADS
    ref, grid, wide = w["suite-reference"], w["grid-restricted"], w["exchange-wide"]
    return [
        replace(ref, default_seed=None, config=replace(
            ref.config, dataset="synth:classes=3,features=10,samples=600,sep=2.0,seed=11",
            agent_counts=(5, 10), dim=100, train_fraction=0.5)),
        replace(grid, default_seed=None,
                dataset="synth:classes=3,features=10,samples=400,sep=2.0,seed=1",
                grid=GridSpec(dim_values=(50, 100, 300), lambda_values=(0.5, 2.0),
                              kappa_values=(1, 3))),
        replace(wide, default_seed=None, config=replace(
            wide.config, dataset="synth:classes=10,features=4,samples=1000,sep=3.0,seed=7",
            agent_counts=(10, 20), dim=200)),
    ]


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def check_workload(workload, failures: list[str]) -> None:
    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(f"{workload.name}: {message}")

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            result = run.run_workload(workload, SEED, SECONDS, trace)
        check(result["correct"] and result["failed"] == 0,
              f"trace={trace} run failed:\n{out.getvalue()}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == expected_units(kind), f"{kind} metrics {got} != {expected_units(kind)}")

    case = workload.prepare(SEED)
    plain = case.outcome(workloads.run_checked(case)[0]).digest
    before = tracing.wrapped_bindings()
    tracer = tracing.Tracer()
    counters = []
    for _ in range(2):
        with tracer:
            check(all(tracing.binding(t, n) is not o for t, n, o in before),
                  "a name is not wrapped inside the tracer")
            tracer.start_sample()
            with tracer.span(case.span_name):
                traced, _ = workloads.run_checked(case)
        layers, _ = tracer.sample_metrics()
        counters.append({k: layers[k] for k in tracing.EXACT_COUNTERS})
        check(case.outcome(traced).digest == plain, "traced records differ from plain records")
    check(counters[0] == counters[1], f"exact counters differ: {counters}")
    after = tracing.wrapped_bindings()
    check(all(a[2] is b[2] for a, b in zip(before, after)), "a wrapped name was not restored")


def check_bare_directory(failures: list[str]) -> None:
    """Without src/hvnet the benchmark must exit non-zero and print no result."""
    with tempfile.TemporaryDirectory(dir=run.HERE / "out") as bare:
        shutil.copy(run.HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "suite-reference", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    failures: list[str] = []
    (run.HERE / "out").mkdir(exist_ok=True)
    check_bare_directory(failures)
    for workload in reduced():
        check_workload(workload, failures)
        print(f"{workload.name}: {'FAILED' if failures else 'ok'}")
        if failures:
            break
    for f in failures:
        print(f"FAILED {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
