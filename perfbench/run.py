"""Run one hvnet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite-reference --seed 42 --seconds 30 --trace 0

Run from the root of a checkout; hvnet is imported from its ``src``.  After
one warm-up call, the workload's timed call is repeated (one process, closed
loop) until the next call would end more than ``--seconds`` after the
start; every call's output is checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates plain and traced calls and writes
its spans under ``perfbench/out/``.  Exits 1 when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)
NPROC = len(os.sched_getaffinity(0))
# No more BLAS threads than cores; this must happen before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))

import workloads  # noqa: E402  (puts the checkout's src on sys.path)
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 5
MIN_PLAIN = 3  # timed plain calls per run, even past --seconds
MIN_TRACED = 2  # timed traced calls per traced run, and as many plain ones


def provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall times of fresh processes that import hvnet and build the workload's inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if i:  # the first one also fills the bytecode cache
            times.append(time.perf_counter() - started)
    return times


class Run:
    """The calls of one benchmark run: their times, outputs and failures."""

    def __init__(self, case: workloads.Case, tracer: tracing.Tracer | None = None):
        self.case = case
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first = None  # (Outcome, warning counts) of the first call
        self.plain: list[float] = []
        self.traced: list[float] = []
        self.layers: list[dict] = []  # per-layer metrics of each traced call
        self.layer_totals: list[dict] = []  # self time of each layer, per traced call

    def call(self, traced: bool = False, warmup: bool = False) -> bool:
        """Make one checked call; returns False when it raised."""
        self.attempted += 1
        try:
            if traced:
                with self.tracer:
                    self.tracer.start_sample()
                    started = time.perf_counter()
                    with self.tracer.span(self.case.span_name):
                        result, warned = workloads.run_checked(self.case)
                layers, totals = self.tracer.sample_metrics()
            else:
                started = time.perf_counter()
                result, warned = workloads.run_checked(self.case)
            elapsed = time.perf_counter() - started
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"call {self.attempted} raised")
            return False
        outcome = self.case.outcome(result)
        problems = list(outcome.problems)
        problems += [f"unexpected {name} x{n}" for name, n in warned.items()
                     if name not in workloads.EXPECTED_WARNINGS]
        if self.first is None:
            self.first = (outcome, warned)
        elif outcome.digest != self.first[0].digest:
            problems.append(f"output {outcome.digest} differs from the first call's")
        elif warned != self.first[1]:
            problems.append(f"warnings {warned} differ from the first call's")
        if traced:
            if self.layers and any(layers[k] != self.layers[0][k] for k in tracing.EXACT_COUNTERS):
                problems.append("exact counters differ from the first traced call's")
            self.layers.append(layers)
            self.layer_totals.append(totals)
        if problems:
            self.failed += 1
            self.problems += [f"call {self.attempted}: {p}" for p in problems]
        if not warmup:
            (self.traced if traced else self.plain).append(elapsed)
        return True

    def loop(self, seconds: float) -> None:
        """Warm up once, then call until the next call would end ``seconds`` after the start."""
        started = time.perf_counter()
        if not self.call(warmup=True):
            return
        while True:
            if self.tracer is None:
                enough = len(self.plain) >= MIN_PLAIN
            else:
                enough = min(len(self.plain), len(self.traced)) >= MIN_TRACED
            longest = max(self.plain + self.traced, default=0.0)
            if enough and time.perf_counter() - started + longest > seconds:
                return
            traced = self.tracer is not None and len(self.traced) < len(self.plain)
            if not self.call(traced):
                return


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup: list[float]) -> dict:
    """The end-to-end metrics, plus wire_bytes and error_rate, which are printed only."""
    outcome = run.first[0] if run.first else None
    wall = statistics.median(run.plain) if run.plain else 0.0
    print(f"wall_s: median of {len(run.plain)} timed calls after one warm-up: "
          f"{' '.join(f'{t:.4f}' for t in run.plain)} s")
    print(f"setup_s: median of {len(setup)} fresh processes: "
          f"{' '.join(f'{t:.4f}' for t in setup)} s")
    shown = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "units_per_s": metric(run.case.units / wall if wall else 0.0, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy_mean": metric(outcome.accuracy_mean if outcome else 0.0, "fraction"),
        "wire_bytes": metric(outcome.wire_bytes if outcome else 0, "B"),
        "error_rate": metric(run.failed / run.attempted, "fraction"),
    }
    for name, m in shown.items():
        print(f"  {name:<36} {m['value']:<22.8g} {m['unit']}")
    # Both can read 0, so they stay out of the metrics the result line carries.
    return {k: v for k, v in shown.items() if k not in ("wire_bytes", "error_rate")}


def per_layer(run: Run) -> dict:
    """Median self times and first-call counters over the traced calls."""
    if not run.layers:
        return {}
    metrics = {}
    for name, unit in tracing.UNITS.items():
        values = [s[name] for s in run.layers]
        metrics[name] = metric(statistics.median(values) if unit == "s" else values[0], unit)
    traced = statistics.median(run.traced)
    metrics["trace.overhead_s"] = metric(traced - statistics.median(run.plain), "s")

    print(f"layer self time, median of {len(run.traced)} traced calls "
          f"(traced wall {traced:.4f} s):")
    layers = {layer: statistics.median(t.get(layer, 0.0) for t in run.layer_totals)
              for layer in run.layer_totals[0]}
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {seconds:9.4f} s  {100 * seconds / traced:5.1f}%")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:<22.8g} {m['unit']}")
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; prints the report and returns the result line's object."""
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  "
          f"(golden output checked at seed {workload.default_seed})")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    setup = [] if trace else measure_setup(workload.name, seed)
    case = workload.prepare(seed)
    if trace:
        before = tracing.wrapped_bindings()
        tracer = tracing.Tracer()
        run = Run(case, tracer)
        run.loop(seconds)
        if tracing.wrapped_bindings() != before:
            run.problems.append("a wrapped name was not restored")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")
    else:
        run = Run(case)
        run.loop(seconds)

    outcome, warned = run.first if run.first else (None, {})
    print(f"{run.attempted} calls ({len(run.plain)} plain and {len(run.traced)} traced "
          f"after one warm-up), {case.units} {case.unit_name} per call")
    print(f"warnings per call, expected: {json.dumps(warned, sort_keys=True)}")
    if outcome is not None:
        print(f"output sha256 {outcome.digest}")
    for p in run.problems:
        print(f"FAILED {p}")
    correct = not run.problems
    metrics = per_layer(run) if trace else end_to_end(run, setup)
    return {"correct": correct, "attempted": run.attempted,
            "failed": max(run.failed, 0 if correct else 1), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
