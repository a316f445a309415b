"""Command-line interface for running benchmark experiments.

Verbs: run-static, run-dynamic, bench-synthetic, report, selftest. Commands
exit 0 on success; on failure they print a machine-readable JSON error
record to stderr and exit nonzero. ``selftest`` prints one PASS/FAIL line per
check of ``tlbo.oracles`` (the acceptance suite's oracle checks) and exits 1
if any fails.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, bo, space as space_mod
from .errors import ParseError, ValidationError

_FAMILY = [f.name for f in dataclasses.fields(bench.SyntheticFamilySpec)]  # a family object's keys


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: cannot read JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def _build_tasks(tasks_cfg):
    if not isinstance(tasks_cfg, dict) or "kind" not in tasks_cfg:
        raise ParseError("config 'tasks' must be an object with a 'kind'")
    kind = tasks_cfg.pop("kind")
    if kind == "tabular":
        paths = _pop_typed(_pop_only(tasks_cfg, ("paths",), "config 'tasks'"), "paths", [], list, str)
        if not paths:
            raise ParseError("tabular tasks need a non-empty 'paths' list")
        return [bench.load_tabular(p) for p in paths]
    if kind == "synthetic":
        family = _pop_only(tasks_cfg, ("family",), "config 'tasks'").get("family")
        if not isinstance(family, dict):
            raise ParseError("synthetic tasks need a 'family' object")
        spec = bench.SyntheticFamilySpec(**_pop_only(family, _FAMILY, "config 'family'"))
        return bench.make_synthetic_family(spec)
    raise ParseError(f"unknown task kind {kind!r}")


def _pop_only(cfg: dict, keys, where: str) -> dict:
    """The entries of ``keys`` popped from ``cfg``, which must hold no others."""
    read = {key: cfg.pop(key) for key in keys if key in cfg}
    if cfg:
        raise ValidationError(f"{where} has the unread key(s) {sorted(cfg)}")
    return read


def _pop_typed(cfg: dict, key: str, default, kind: type, item: type | None = None):
    """``cfg.pop(key, default)``, which must be of ``kind`` (a JSON bool is no
    int), with every entry of ``item`` for a list, or ``None`` where that is
    the default."""
    value = cfg.pop(key, default)
    if value is None and default is None:
        return value
    if type(value) is not kind or item is not None and any(type(v) is not item for v in value):
        name = kind.__name__ + (f" of {item.__name__}" if item else "")
        raise ValidationError(f"config key {key!r} must be of JSON type {name}; got {value!r}")
    return value


def _cmd_run(args, protocol: str) -> int:
    """Run one protocol from a config; every key is read once, by ``pop``."""
    cfg = _load_json(args.config)
    config_protocol = cfg.pop("protocol", protocol)
    if config_protocol != protocol:
        raise ValidationError(f"config protocol {config_protocol!r} does not match run-{protocol}")
    out_dir = cfg.pop("out_dir", None)
    tasks_cfg = cfg.pop("tasks", None)
    kwargs = dict(
        methods=_pop_typed(cfg, "methods", ["transbo"], list, str),
        budget=_pop_typed(cfg, "budget", 30, int),
        seeds=cfg.pop("seeds", 1),
        n_s=_pop_typed(cfg, "N_S", 50, int),
        n_cv=_pop_typed(cfg, "n_cv", 5, int),
        n_candidates=_pop_typed(cfg, "n_candidates", bo.N_CANDIDATES, int),
        base_seed=_pop_typed(cfg, "base_seed", 0, int),
        workers=_pop_typed(cfg, "workers", 1, int),
    )
    if protocol == "static":
        kwargs.update(
            targets=_pop_typed(cfg, "targets", None, list, int),
            flip_source_outputs=_pop_typed(cfg, "flip_sources", False, bool),
        )
    _pop_only(cfg, (), f"run-{protocol} config")
    out = args.out or out_dir
    if not out:
        raise ValidationError("an output directory is required (--out or config 'out_dir')")
    run = bench.run_static if protocol == "static" else bench.run_dynamic
    result = run(_build_tasks(tasks_cfg), **kwargs)
    result.save(out)
    print(f"wrote {len(result.runs)} run(s) to {out}")
    return 0


def _cmd_bench_synthetic(args) -> int:
    spec_data = _load_json(args.spec)
    grid_size = _pop_typed(spec_data, "grid_size", 2000, int)
    spec = bench.SyntheticFamilySpec(**_pop_only(spec_data, _FAMILY, "bench-synthetic spec"))
    tasks = bench.make_synthetic_family(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, task in enumerate(tasks):
        configs = space_mod.sample_uniform(task.space, grid_size, bo.derived_seed(spec.seed, 50, i))
        objective = task.make_objective(np.random.default_rng(bo.derived_seed(spec.seed, 51, i)))
        rows = [(c, objective(c)) for c in configs]
        table = bench.TabularTask.from_rows(task.name, task.space, rows)
        path = out / f"{task.name}.json"
        bench.save_tabular(table, path)
        manifest.append(
            {
                "name": task.name,
                "file": path.name,
                "noiseless_y_min": task.y_min,
                "noiseless_y_max": task.y_max,
                "optimum": None if task.optimum is None else task.optimum.tolist(),
                "translation": task.translation.tolist(),
                "scale": task.scale,
                "noise_sigma": task.noise_sigma,
            }
        )
    with open(out / "family.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    print(f"wrote {len(tasks)} task table(s) to {out}")
    return 0


def _cmd_report(args) -> int:
    result = bench.ExperimentResult.load(args.result_dir)
    written = bench.report(result, args.out_dir)
    for path in written:
        print(path)
    return 0


def _check(name: str, fn) -> bool:
    try:
        fn()
    except Exception as exc:
        print(f"FAIL {name}: {exc}")
        return False
    print(f"PASS {name}")
    return True


def _selftest(args) -> int:
    """Run the oracle checks of ``tlbo.oracles``, the acceptance suite's own."""
    from . import oracles  # loads scipy.optimize, which no other command needs
    ok = all([_check(name, fn) for name, fn in oracles.CHECKS])
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlbo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for protocol, protocol_help in (("static", "leave-one-out"), ("dynamic", "sequential-arrival")):
        p = sub.add_parser(f"run-{protocol}", help=f"run the {protocol_help} protocol from a config file")
        p.add_argument("config")
        p.add_argument("--out", help="output directory (overrides config 'out_dir')")
        p.set_defaults(handler=functools.partial(_cmd_run, protocol=protocol))

    p = sub.add_parser("bench-synthetic", help="materialize a synthetic family as tabular task files")
    p.add_argument("spec")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_bench_synthetic)

    p = sub.add_parser("report", help="emit CSV summaries from a result directory")
    p.add_argument("result_dir")
    p.add_argument("out_dir")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("selftest", help="run the acceptance suite's oracle checks")
    p.set_defaults(handler=_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
