"""Run-to-run stability of the benchmark, checked against BENCHMARK.json.

Usage, from the root of a checkout::

    python3 perfbench/stability.py --seeds 10 --sets 2 --trace-seeds 2

For each workload it runs ``perfbench/run.py`` once per seed (0, 1, ...),
one run at a time, and reports for every end-to-end metric the median, the
quartile spread (q3 - q1, from ``statistics.quantiles(values, n=4)``) as a
share of the median (with two sets, the larger of the two), and that
spread as a share of the metric's bound.
Deterministic values must repeat exactly across seeds: both ADTM metrics,
``ok_frac``, and, over ``--trace-seeds`` traced runs, every per-layer count
(``*.calls``, ``*.rows``, ``*.pairs``, ``*.errors``). With ``--sets 2`` every
seed runs twice, each set's spread is checked, and the second median is
compared with the first. Exits 1 if a run fails, a spread exceeds its bound,
the second median is worse than the first by more than the bound, or an
exact value does not repeat.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_END_TO_END = ("adtm_mean", "adtm_final", "ok_frac")
EXACT_SUFFIXES = (".calls", ".rows", ".pairs", ".errors")


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seeds = range(args.seeds)
    failures = []
    for workload in workloads:
        sets, walls = [], []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                values, wall = run_once(spec, workload, seed, 0)
                runs.append(values)
                walls.append(wall)
                print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"\n{workload}: {args.seeds} seeds x {args.sets} set(s), "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':<14}{'median':>14}{'spread':>9}{'bound':>7}{'/bound':>8}{'2nd vs 1st':>12}")
        for name, metric in metrics.items():
            medians, shares = zip(*(spread([r[name] for r in runs]) for runs in sets))
            share = max(shares)
            line = f"  {name:<14}{medians[0]:>14.6g}{share:>9.4f}{metric['bound']:>7.3g}{share / metric['bound']:>8.2f}"
            if len(sets) == 2:
                line += f"{worse_by(metric, medians[0], medians[1]):>+12.4f}"
                if worse_by(metric, medians[0], medians[1]) > metric["bound"]:
                    failures.append(f"{workload} {name}: second median worse by more than the bound")
            print(line)
            if share > metric["bound"]:
                failures.append(f"{workload} {name}: spread {share:.4f} exceeds bound {metric['bound']}")
            if name in EXACT_END_TO_END and len({r[name] for runs in sets for r in runs}) != 1:
                failures.append(f"{workload} {name}: differs between runs")
        traced = [run_once(spec, workload, seed, 1) for seed in range(args.trace_seeds)]
        if traced:
            counts = [{k: v for k, v in t.items() if k.endswith(EXACT_SUFFIXES)} for t, _ in traced]
            if any(c != counts[0] for c in counts):
                failures.append(f"{workload}: per-layer counts differ between traced runs")
            layer = traced[0][0]
            print(f"  traced ({args.trace_seeds} runs, {max(w for _, w in traced):.1f} s wall max; first run):")
            for name, value in layer.items():
                print(f"    {name:<40}{value:>16.6g}")
    for message in failures:
        print(f"FAIL: {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
