"""Benchmark of the tlbo optimizer: one workload per run, printed as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload transbo-branin --seed 0 --seconds 10 --trace 0

The library is imported from ``src/`` of the checkout holding this file and
nowhere else. BLAS is pinned to one thread before numpy loads, and the
process to the last usable core. A run builds the workload (set-up,
repeated and reported as the median), then makes one pass of its pooled BO
runs, checks it, and prints an environment line followed by the result as
the last line of standard output. A pass lasts longer than the
``run_seconds`` of ``BENCHMARK.json`` on every workload, so ``--seconds``
is accepted for the command-line interface and always exceeded. With
``--trace 1`` a traced pass follows the untraced one; both must produce the
same records, and the per-layer metrics of the traced pass are reported. Metric names and units
are those of ``BENCHMARK.json``. The full result (with the trial times, or
the spans of a traced run) is written under ``.perfbench_out/``.

Exit codes: 0 on success, 1 when a correctness check fails (the result line
is still printed) or the program raises, 2 when the library cannot be
imported from the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up runs at least this many times and for at least this long, so that
# a set-up of a few milliseconds is still reported as a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import tlbo from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tlbo
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tlbo from {src}: {exc}") from None
    origin = Path(tlbo.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: tlbo was imported from {origin}, not from {src}")
    return tlbo


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The library is single-threaded: run it on one core, the last one, away
    # from CPU 0 where a small VM's kernel work and other processes tend to run.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    for var in BLAS_ENV:
        os.environ[var] = "1"
    try:
        tlbo = import_library()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import numpy as np

    import environment
    from tracing import Tracer, trace_points
    from workloads import WORKLOADS, fingerprint, without_wallclock

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment.describe(ROOT, BLAS_ENV, cpus)
    errors: list[str] = []

    setup_s, built = [], set()
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        ctx = workload.setup()
        setup_s.append(time.perf_counter() - t0)
        built.add(fingerprint(ctx))
    if len(built) != 1:
        errors.append("repeated set-up built different tasks or sources")

    shift = args.seed % len(workload.bo_seeds)
    order = workload.bo_seeds[shift:] + workload.bo_seeds[:shift]

    def timed_pass(full: bool):
        tracer = Tracer(error_types=(tlbo.FitError,))
        with tracer.installed(trace_points(tlbo, full)):
            runs = workload.run_pass(ctx, order)
        errors.extend(workload.check(ctx, runs, tracer.counters["bo.observe.fit_failed"]))
        records = {r.seed: without_wallclock(r.records) for r in runs}
        run_s = sum(end - start for _, start, end, _ in tracer.named("bo.run"))
        return tracer, runs, records, run_s

    tracer, runs, untraced_records, run_s = timed_pass(full=False)
    attempted = sum(len(r.records) for r in runs)
    failed = sum(rec["failed"] for r in runs for rec in r.records)
    failed = min(attempted, failed + tracer.counters["bo.observe.fit_failed"])
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env}

    if args.trace:
        traced, _, records, traced_run_s = timed_pass(full=True)
        if records != untraced_records:
            errors.append("the traced pass produced different records than the untraced pass")
        traced_names = [name for _, _, name, _ in trace_points(tlbo, full=True)]
        values, detail["self_time_share"] = per_layer(traced, traced_names, workload.idle, errors)
        values["trace.overhead_s"] = traced_run_s - run_s
        values["env.ref_kernel_ms"] = env["ref_kernel_ms"]
        detail["spans"] = traced.spans
        reported = spec["per_layer"]
    else:
        trials = tracer.trial_ms()
        per_seed = workload.adtm_per_run(ctx, runs)
        adtm = np.mean(per_seed, axis=0)
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": run_s,
            "trial_ms_p50": float(np.percentile(trials, 50)),
            "trial_ms_p90": float(np.percentile(trials, 90)),
            "adtm_mean": float(adtm.mean()),
            "adtm_final": float(adtm[-1]),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["trial_ms"] = trials
        detail["adtm_per_seed"] = {
            r.seed: {"adtm_mean": float(a.mean()), "adtm_final": float(a[-1])} for r, a in zip(runs, per_seed)
        }
        reported = spec["end_to_end"]
    env["setups"] = len(setup_s)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }
    detail.update(errors=errors, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh)
    for message in errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 1 if errors else 0


def per_layer(tracer, traced_names, idle_prefixes, errors):
    """Per-layer values of a traced pass, and each span's self-time share.

    A value named ``<span>.<field>`` is the span's calls, inclusive ms or
    self ms, or the counter of that name (rows, pairs, errors).
    ``ranking.phase2_ms`` is solver time inside ``learn_phase2_weights`` and
    ``ranking.phase1_ms`` the rest. Also checks that the workload calls
    exactly the layers it should: every traced span has calls unless its
    name starts with an idle prefix, in which case it has none.
    """
    summary = tracer.summary()
    values = dict(tracer.counters)
    for name in traced_names:
        entry = summary.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        values.update({f"{name}.{field}": v for field, v in entry.items()})
        idle = name.startswith(idle_prefixes)
        if idle and entry["calls"]:
            errors.append(f"{name} was called {entry['calls']} times; this workload must bypass it")
        elif not idle and not entry["calls"]:
            errors.append(f"{name} was never called")
    values["ranking.phase1_ms"] = values["ranking.phase2_ms"] = 0.0
    for i, (name, start, end, _) in enumerate(tracer.spans):
        if name == "ranking.minimize_on_simplex":
            phase = "phase2" if tracer.has_ancestor(i, "transfer.learn_phase2_weights") else "phase1"
            values[f"ranking.{phase}_ms"] += (end - start) * 1e3
    for name in traced_names:
        for counter in ("rows", "pairs", "errors"):
            values.setdefault(f"{name}.{counter}", 0)
    total_ms = sum(end - start for _, start, end, parent in tracer.spans if parent < 0) * 1e3
    return values, {name: entry["self_ms"] / total_ms for name, entry in summary.items()}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
