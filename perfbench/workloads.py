"""The benchmark's workloads: frozen inputs, their set-up, one pass of pooled
BO runs, and the checks each pass must satisfy.

Inputs are frozen per workload (family seed, pooled BO seeds) rather than
drawn from the run's ``--seed``: the pooled ADTM is the gate on quality and
must be identical for fixed code, and the cost of one BO run varies about
threefold across BO seeds, which would swamp every timing bound. The run's
seed only rotates the order in which the pooled BO runs execute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from tlbo import bench, bo, space

N_INIT = bo.N_INIT
N_S = 50
N_CV = 5
BASE_SEED = 0
# Run and noise seed tags, derived exactly as bench.run_static derives them,
# so a branin run here reproduces run_static(..., targets=[0]) for that seed.
TAG_RUN = 10
TAG_NOISE = 11
# Table size and seed tags of the `tlbo bench-synthetic` recipe.
TABLE_ROWS = 2000
TAG_TABLE_ROWS = 50
TAG_TABLE_NOISE = 51

RECORD_WALLCLOCK_FIELDS = ("suggest_wallclock_ms",)


@dataclass
class Context:
    """What set-up builds before trial 1."""

    target: bench.SyntheticTask
    tasks: list
    sources: object | None = None
    tables: list | None = None


@dataclass
class Run:
    seed: int
    records: list[dict]
    true_incumbents: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    budget: int
    bo_seeds: tuple[int, ...]
    tabular: bool
    k: int
    # Prefixes of the traced spans this workload must never enter; every
    # other traced span must have calls.
    idle: tuple[str, ...]

    def setup(self) -> Context:
        if self.tabular:
            spec = bench.SyntheticFamilySpec(base="quadratic-bowl", n_tasks=self.k + 1, dim=4, seed=0)
            tasks = bench.make_synthetic_family(spec)
            tables = [_materialize(spec, i, task) for i, task in enumerate(tasks)]
            sources = bench.build_static_sources(tables, 0, N_S, base_seed=BASE_SEED)
            return Context(target=tasks[0], tasks=tasks, sources=sources, tables=tables)
        spec = bench.SyntheticFamilySpec(base="branin", n_tasks=6, seed=3)
        tasks = bench.make_synthetic_family(spec)
        sources = bench.build_static_sources(tasks, 0, N_S, base_seed=BASE_SEED) if self.k else None
        return Context(target=tasks[0], tasks=tasks, sources=sources)

    def run_pass(self, ctx: Context, seeds) -> list[Run]:
        """One BO run per pooled seed, in the given order."""
        if self.tabular:
            result = bench.run_static(
                ctx.tables, [self.policy], budget=self.budget, seeds=list(seeds), n_s=N_S,
                n_cv=N_CV, base_seed=BASE_SEED, targets=[0], workers=1,
            )
            outputs = [(s, result.runs[(ctx.tables[0].name, self.policy, s)].records) for s in seeds]
        else:
            outputs = []
            for s in seeds:
                objective = ctx.target.make_objective(
                    np.random.default_rng(bo.derived_seed(BASE_SEED, TAG_NOISE, 0, s))
                )
                result = bo.run(
                    ctx.target.space, objective, sources=ctx.sources, policy=self.policy,
                    budget=self.budget, seed=bo.derived_seed(BASE_SEED, TAG_RUN, 0, s),
                    n_cv=N_CV, n_candidates=bo.N_CANDIDATES,
                )
                outputs.append((s, result.records))
        return [Run(s, records, _true_incumbents(ctx.target, records)) for s, records in outputs]

    def adtm_per_run(self, ctx: Context, runs: list[Run]) -> list[np.ndarray]:
        """Noiseless ADTM per trial of each pooled run."""
        t = ctx.target
        return [bench.adtm([r.true_incumbents], [t.y_min], [t.y_max]) for r in runs]

    def check(self, ctx: Context, runs: list[Run], fit_failures: int) -> list[str]:
        """Invariants of the program's output; returns one message per breach."""
        errors = []
        if sorted(r.seed for r in runs) != sorted(self.bo_seeds):
            errors.append(f"pooled runs {[r.seed for r in runs]} != seeds {list(self.bo_seeds)}")
        with_p = 0
        for run in runs:
            errors += [f"seed {run.seed}: {e}" for e in self._check_run(ctx, run.records)]
            with_p += sum(r["p_target"] is not None for r in run.records)
        post_init = len(runs) * (self.budget - N_INIT)
        if self.policy == "transbo" and with_p < post_init - fit_failures:
            errors.append(f"only {with_p} of {post_init} post-init trials carry weights")
        return errors

    def _check_run(self, ctx: Context, records: list[dict]) -> list[str]:
        errors = []
        if len(records) != self.budget:
            return [f"{len(records)} trials, budget {self.budget}"]
        ys = np.array([r["y"] for r in records])
        if [r["iteration"] for r in records] != list(range(self.budget)):
            errors.append("iterations are not 0..budget-1")
        if not np.all(np.isfinite(ys)):
            errors.append("non-finite observation")
        incumbents = np.array([r["incumbent_y"] for r in records])
        if np.any(np.diff(incumbents) > 0):
            errors.append("incumbent increased")
        if not np.array_equal(incumbents, np.minimum.accumulate(ys)):
            errors.append("incumbent is not the running minimum of y")
        prev_p_target = 0.0
        for r in records:
            if self.policy != "transbo" or r["iteration"] < N_INIT:
                if r["w"] is not None or r["p_target"] is not None:
                    errors.append(f"trial {r['iteration']}: weights on a trial without transfer")
                continue
            if r["p_target"] is None:
                continue
            p = [r["p_source"], r["p_target"]]
            if not _on_simplex(p, 2):
                errors.append(f"trial {r['iteration']}: p={p} is off the simplex")
            if not _on_simplex(r["w"], self.k):
                errors.append(f"trial {r['iteration']}: w={r['w']} is off the simplex")
            if r["p_target"] < prev_p_target:
                errors.append(f"trial {r['iteration']}: p_target decreased")
            prev_p_target = r["p_target"]
        if self.tabular:
            lookup = ctx.tables[0].lookup()
            keys = [bo._config_key(space.Configuration(r["config"])) for r in records]
            if len(set(keys)) != len(keys):
                errors.append("a table row was suggested twice")
            if any(k not in lookup for k in keys):
                errors.append("a suggestion is not a row of the table")
            elif any(lookup[k] != r["y"] for k, r in zip(keys, records)):
                errors.append("an observation differs from the table")
        return errors


def _on_simplex(values, dim: int) -> bool:
    return (
        values is not None
        and len(values) == dim
        and all(math.isfinite(v) and v >= 0.0 for v in values)
        and abs(math.fsum(values) - 1.0) <= 1e-9
    )


def _true_incumbents(task, records) -> np.ndarray:
    x = np.array([[r["config"][p.name] for p in task.space.params] for r in records], dtype=float)
    return np.minimum.accumulate(task.noiseless(x))


def _materialize(spec, i, task) -> bench.TabularTask:
    configs = space.sample_uniform(task.space, TABLE_ROWS, bo.derived_seed(spec.seed, TAG_TABLE_ROWS, i))
    objective = task.make_objective(np.random.default_rng(bo.derived_seed(spec.seed, TAG_TABLE_NOISE, i)))
    return bench.TabularTask.from_rows(task.name, task.space, [(c, objective(c)) for c in configs])


def fingerprint(ctx: Context) -> bytes:
    """Bytes that identify what set-up built, to check that it is repeatable."""
    parts = [np.append(t.translation, t.scale).tobytes() for t in ctx.tasks]
    for table in ctx.tables or ():
        parts.append(np.array([y for _, y in table.rows]).tobytes())
    for m in ctx.sources.models if ctx.sources is not None else ():
        parts += [m.train_inputs.tobytes(), m.train_targets.tobytes(), m.params.to_log_vector().tobytes()]
    return b"".join(parts)


def without_wallclock(records: list[dict]) -> list[dict]:
    return [{k: v for k, v in r.items() if k not in RECORD_WALLCLOCK_FIELDS} for r in records]


# tabular-k10 pools four runs of 30 trials (the acceptance study's budget)
# for 108 timed trials; three runs of 40 trials give about as many trials
# for a quarter more wall time, which the whole benchmark cannot afford.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("transbo-branin", "transbo", 75, (0, 1), tabular=False, k=5, idle=("bench.",)),
        Workload("igp-branin", "igp", 75, (0, 1), tabular=False, k=0,
                 idle=("bench.", "ranking.", "transfer.", "gp.condition")),
        Workload("tabular-k10", "transbo", 30, (0, 1, 2, 3), tabular=True, k=10, idle=()),
    )
}
