"""Benchmark harness: tabular tasks, synthetic transfer families, the static
(leave-one-out) and dynamic (sequential-arrival) protocols, and metrics.

Tabular tasks are finite pre-evaluated grids, each stored once as arrays (a
``space.ConfigTable`` of raw columns, encoded grid and sorted row index, and
the outcomes ``y``) that every run on the task shares; runs suggest only
unevaluated rows, and range extremes for the distance-to-minimum metric come
from the full table. Synthetic families perturb a base function (translation
and output scale per task) so task relatedness is controllable.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bo, gp, space as space_mod
from .bo import RunResult, derived_seed
from .errors import ParseError, ValidationError
from .space import ConfigSpace, ConfigTable, Configuration, ParamSpec, is_finite_number, is_int
from .transfer import SourceEnsemble

BRANIN_BOUNDS = ((-5.0, 10.0), (0.0, 15.0))
BRANIN_MIN_VALUE = 5.0 / (4.0 * math.pi)
BRANIN_MINIMA = (
    (-math.pi, 12.275),
    (math.pi, 2.275),
    (9.42478, 2.475),
)
BOWL_BOUND = 5.0

BASE_FUNCTIONS = ("branin", "quadratic-bowl")

# Seed-stream tags for deriving per-run and per-source seeds.
_TAG_SOURCE_ROWS = 30
_TAG_SOURCE_FIT = 31
_TAG_RUN = 10
_TAG_NOISE = 11


def branin(x: np.ndarray) -> np.ndarray:
    """Branin function on (-5, 10) x (0, 15); three global minima of 5/(4 pi)."""
    x = np.asarray(x, dtype=float)
    return _branin(x[..., 0], x[..., 1])


def _branin(x1, x2):
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    t = 1.0 / (8.0 * math.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * np.cos(x1) + 10.0


def quadratic_bowl(x: np.ndarray) -> np.ndarray:
    """Sum of squares; minimum 0 at the origin."""
    x = np.asarray(x, dtype=float)
    return (x**2).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class TabularTask:
    """A finite pre-evaluated benchmark: distinct configurations with stored
    outcomes, kept once as arrays, ``table`` and ``y``, that every run on
    the task shares. ``from_rows`` validates the rows and rejects a repeated
    configuration before any source is fitted on the table; ``load_tabular``
    drops repeats first. ``rows`` builds its configurations on each call."""

    name: str
    space: ConfigSpace
    table: ConfigTable
    y: np.ndarray
    y_min: float
    y_max: float

    @classmethod
    def from_rows(cls, name, space, rows) -> "TabularTask":
        rows = list(rows)
        label = f"tabular task {name!r}"
        table = ConfigTable.from_configs(space, [config for config, _ in rows], label)
        bad = next((i for i, (_, y) in enumerate(rows, start=1) if not is_finite_number(y)), None)
        if bad is not None:
            raise ValidationError(f"{label}: row {bad}: y must be a finite number")
        y = np.array([y for _, y in rows], dtype=float)
        return cls(name=name, space=space, table=table, y=y, y_min=float(y.min()), y_max=float(y.max()))

    @property
    def rows(self) -> tuple[tuple[Configuration, float], ...]:
        return tuple((self.table.config(i), float(y)) for i, y in enumerate(self.y))

    def lookup(self) -> dict:
        return {bo._config_key(c): y for c, y in self.rows}


def load_tabular(path) -> TabularTask:
    """Load a tabular task file: {"space": {...}, "rows": [{"config", "y"}]}.

    Every row is checked, and errors name the file's row, counted from 1;
    duplicate configurations then keep the first row.
    """
    path = Path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: cannot read task file ({exc})") from exc
    if not isinstance(data, dict) or "space" not in data or "rows" not in data:
        raise ParseError(f"{path}: expected an object with 'space' and 'rows'")
    try:
        space = space_mod.space_from_dict(data["space"])
    except ValidationError as exc:
        raise ParseError(f"{path}: bad space definition ({exc})") from exc
    rows_data = data["rows"]
    if not isinstance(rows_data, list) or not rows_data:
        raise ParseError(f"{path}: 'rows' must be a non-empty array")

    rows: list[tuple[Configuration, float]] = []
    for i, entry in enumerate(rows_data, start=1):
        if not isinstance(entry, dict) or not isinstance(entry.get("config"), dict) or "y" not in entry:
            raise ParseError(f"{path}: row {i}: expected an object with 'config' and 'y'")
        if not is_finite_number(entry["y"]):
            raise ParseError(f"{path}: row {i}: 'y' must be a finite number")
        rows.append((Configuration(entry["config"]), float(entry["y"])))
    try:
        cols = space_mod._columns(space, [config for config, _ in rows], str(path))
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
    first: dict = {}  # keyed by the raw values, as the task's ConfigTable compares rows
    for key, row in zip(zip(*cols.values()), rows):
        first.setdefault(key, row)
    return TabularTask.from_rows(name=data.get("name", path.stem), space=space, rows=list(first.values()))


def save_tabular(task: TabularTask, path) -> None:
    data = {
        "name": task.name,
        "space": space_mod.space_to_dict(task.space),
        "rows": [{"config": dict(c.values), "y": y} for c, y in task.rows],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)


@dataclass(frozen=True)
class SyntheticFamilySpec:
    """A family of related tasks: a base function under per-task translation
    and output scaling, with observation noise proportional to each task's
    output range."""

    base: str = "branin"
    n_tasks: int = 6
    translation_range: float = 2.0
    scale_range: tuple[float, float] = (0.8, 1.25)
    noise_scale: float = 0.01
    seed: int = 0
    dim: int = 2

    def __post_init__(self):
        scale_range = self.scale_range
        for key, ok, kind in (
            ("base", isinstance(self.base, str), "a string"),
            ("n_tasks", is_int(self.n_tasks), "an integer"),
            ("seed", is_int(self.seed), "an integer"),
            ("dim", is_int(self.dim), "an integer"),
            ("translation_range", is_finite_number(self.translation_range), "a finite number"),
            ("noise_scale", is_finite_number(self.noise_scale), "a finite number"),
            ("scale_range", isinstance(scale_range, (list, tuple)) and len(scale_range) == 2
             and all(map(is_finite_number, scale_range)), "two finite numbers"),
        ):
            if not ok:
                raise ValidationError(f"family key {key!r} must be {kind}; got {getattr(self, key)!r}")
        if self.base not in BASE_FUNCTIONS:
            raise ValidationError(f"unknown base function {self.base!r}")
        if self.n_tasks < 1:
            raise ValidationError("a family needs at least one task")
        if self.noise_scale < 0:
            raise ValidationError("noise scale must be nonnegative")
        if self.translation_range < 0:
            raise ValidationError("translation range must be nonnegative")
        lo, hi = self.scale_range
        if not (0 < lo <= hi):
            raise ValidationError("scale range must satisfy 0 < low <= high")
        if self.base == "branin" and self.dim != 2:
            raise ValidationError("branin is two-dimensional")
        if self.base == "quadratic-bowl" and self.translation_range > BOWL_BOUND:
            raise ValidationError("bowl translation range must keep the optimum in the domain")
        object.__setattr__(self, "scale_range", (float(lo), float(hi)))


@dataclass(frozen=True)
class SyntheticTask:
    """One member of a synthetic family, with known noiseless extremes."""

    name: str
    space: ConfigSpace
    base: str
    translation: np.ndarray
    scale: float
    noise_sigma: float
    y_min: float
    y_max: float
    optimum: np.ndarray | None

    def noiseless(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the task function on raw-coordinate rows (n, dim)."""
        shifted = np.asarray(x, dtype=float) - self.translation
        base = branin(shifted) if self.base == "branin" else quadratic_bowl(shifted)
        return self.scale * base

    def make_objective(self, rng: np.random.Generator):
        """A configuration-level callback adding Gaussian observation noise."""

        def objective(config: Configuration) -> float:
            x = np.array([config.values[p.name] for p in self.space.params], dtype=float)
            value = float(self.noiseless(x[None, :])[0])
            if self.noise_sigma > 0:
                value += float(rng.normal(0.0, self.noise_sigma))
            return value

        return objective


def _box_space(bounds) -> ConfigSpace:
    """Continuous parameters x1, x2, ..., one per (low, high) of ``bounds``."""
    return ConfigSpace([ParamSpec(f"x{i}", "continuous", lo, hi) for i, (lo, hi) in enumerate(bounds, 1)])


def _branin_extremes(translation: np.ndarray, scale: float):
    """Noiseless (min, max, argmin) of a translated, scaled branin on its box.

    The max is the 257 x 257 grid's, read off its two x2 edge columns: along
    a row, u_j = ((x2_j - b x1^2) + c x1) - 6 never decreases, as rounding a
    sum with a fixed term keeps order, so |u_j| <= max(|u_0|, |u_256|), and
    u^2, the row's fixed ``+ 10(1 - t) cos(x1) + 10`` and ``scale *`` (scale
    > 0) keep order too. The min is analytic when a translated minimum lies
    in the box; otherwise it and its argmin are the full grid's.
    """
    lows, highs = np.array(BRANIN_BOUNDS).T
    in_domain = [m for m in np.array(BRANIN_MINIMA) + translation if np.all((lows <= m) & (m <= highs))]
    g1 = np.linspace(BRANIN_BOUNDS[0][0], BRANIN_BOUNDS[0][1], 257)
    g2 = np.linspace(BRANIN_BOUNDS[1][0], BRANIN_BOUNDS[1][1], 257)
    # The grid's values, row i at g1[i] and column j at g2[j].
    x1 = (g1 - translation[0])[:, None]
    y_max = float((scale * _branin(x1, (g2[[0, -1]] - translation[1])[None, :])).max())
    if in_domain:
        return scale * BRANIN_MIN_VALUE, y_max, in_domain[0]
    values = scale * _branin(x1, (g2 - translation[1])[None, :])
    i, j = divmod(int(values.argmin()), g2.size)
    return float(values.min()), y_max, np.array([g1[i], g2[j]])


def make_synthetic_family(spec: SyntheticFamilySpec) -> list[SyntheticTask]:
    """Materialize a family of related tasks, deterministically per seed."""
    rng = np.random.default_rng(spec.seed)
    space = _box_space(BRANIN_BOUNDS if spec.base == "branin" else [(-BOWL_BOUND, BOWL_BOUND)] * spec.dim)
    tasks = []
    for i in range(spec.n_tasks):
        translation = rng.uniform(-spec.translation_range, spec.translation_range, size=spec.dim)
        scale = float(rng.uniform(*spec.scale_range))
        if spec.base == "branin":
            y_min, y_max, optimum = _branin_extremes(translation, scale)
        else:
            y_min = 0.0
            y_max = float(scale * sum(max((-BOWL_BOUND - t) ** 2, (BOWL_BOUND - t) ** 2) for t in translation))
            optimum = translation.copy()
        noise_sigma = spec.noise_scale * (y_max - y_min)
        tasks.append(
            SyntheticTask(
                name=f"{spec.base}-{i:02d}",
                space=space,
                base=spec.base,
                translation=translation,
                scale=scale,
                noise_sigma=noise_sigma,
                y_min=float(y_min),
                y_max=y_max,
                optimum=optimum,
            )
        )
    return tasks


def adtm(incumbent_y_per_task, y_min_per_task, y_max_per_task) -> np.ndarray:
    """Average distance to the minimum after each trial, in [0, 1].

    Per task the incumbent's distance to the best value is normalized by the
    task's full range and clipped into [0, 1]; the result averages tasks.
    Tasks with a degenerate range are excluded with a warning.
    """
    incumbent_y_per_task = list(incumbent_y_per_task)
    y_mins = list(y_min_per_task)
    y_maxs = list(y_max_per_task)
    if not incumbent_y_per_task:
        raise ValidationError("adtm needs at least one task")
    if not (len(incumbent_y_per_task) == len(y_mins) == len(y_maxs)):
        raise ValidationError("adtm inputs must align per task")
    curves = []
    for i, (inc, lo, hi) in enumerate(zip(incumbent_y_per_task, y_mins, y_maxs)):
        if not hi > lo:
            warnings.warn(f"adtm: task {i} has a degenerate range and is excluded")
            continue
        inc = np.minimum.accumulate(np.asarray(inc, dtype=float))
        curves.append(np.clip((inc - lo) / (hi - lo), 0.0, 1.0))
    if not curves:
        raise ValidationError("adtm: every task had a degenerate range")
    lengths = {c.size for c in curves}
    if len(lengths) > 1:
        raise ValidationError("adtm: incumbent vectors must share one length")
    return np.mean(np.stack(curves), axis=0)


def average_rank(best_values) -> np.ndarray:
    """Competition ranks of per-method values along the last axis (lower is
    better): a 1-D array is one ranking, and a 2-D (rows, methods) array is
    ranked row by row. Tied values share the mean of the 1-based positions
    they occupy, so every rank is a whole number or a half. ``+inf`` stands
    for a method with no successful trial yet and ranks last. Each value is
    compared with every other in its row, which suits the few methods of a
    report."""
    arr = np.asarray(best_values, dtype=float)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValidationError("average_rank expects a non-empty 1-D or 2-D array")
    if not np.all(np.isfinite(arr) | (arr == np.inf)):
        raise ValidationError("average_rank expects finite values or +inf")
    below = (arr[..., None, :] < arr[..., :, None]).sum(axis=-1)
    tied = (arr[..., None, :] == arr[..., :, None]).sum(axis=-1)
    return below + (tied + 1) / 2


@dataclass(frozen=True)
class TaskMeta:
    name: str
    y_min: float
    y_max: float


@dataclass
class ExperimentResult:
    """All runs of one experiment, keyed by (task, method, seed)."""

    protocol: str
    budget: int
    n_s: int
    n_cv: int
    methods: list[str]
    seeds: list[int]
    tasks: list[TaskMeta]
    runs: dict = field(default_factory=dict)

    def incumbent_curve(self, task: str, method: str, seed: int, true_values: bool = False) -> np.ndarray:
        """Per-trial incumbent values; with ``true_values`` the noiseless ones
        where recorded (synthetic tasks), falling back to observed."""
        run = self.runs[(task, method, seed)]
        if true_values and run.records and "incumbent_y_true" in run.records[0]:
            return run.incumbents("incumbent_y_true")
        return run.incumbents()

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        (out / "runs").mkdir(parents=True, exist_ok=True)
        keys = ("protocol", "budget", "n_s", "n_cv", "methods", "seeds")
        manifest = {key: getattr(self, key) for key in keys} | {"tasks": [vars(t) for t in self.tasks]}
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
        for (task, method, seed), result in self.runs.items():
            result.to_jsonl(out / "runs" / f"{task}__{method}__seed{seed}.jsonl")

    @classmethod
    def load(cls, result_dir) -> "ExperimentResult":
        root = Path(result_dir)
        manifest_path = root / "manifest.json"
        if not manifest_path.exists():
            raise ParseError(f"{root}: no manifest.json found")
        try:
            manifest = json.loads(manifest_path.read_text())
            result = cls(
                **{key: manifest[key] for key in ("protocol", "budget", "n_s", "n_cv")},
                methods=list(manifest["methods"]),
                seeds=list(manifest["seeds"]),
                tasks=[TaskMeta(t["name"], t["y_min"], t["y_max"]) for t in manifest["tasks"]],
            )
        except json.JSONDecodeError as exc:
            raise ParseError(f"{manifest_path}: not a JSON manifest ({exc})") from exc
        except KeyError as exc:
            raise ParseError(f"{manifest_path}: missing key {exc}") from exc
        except TypeError as exc:
            raise ParseError(f"{manifest_path}: malformed manifest ({exc})") from exc
        for t in result.tasks:
            for method in result.methods:
                for seed in result.seeds:
                    path = root / "runs" / f"{t.name}__{method}__seed{seed}.jsonl"
                    if not path.exists():
                        raise ParseError(f"{path}: run file missing from the result directory")
                    run = RunResult.from_jsonl(path)
                    if len(run.records) != result.budget:
                        raise ParseError(
                            f"{path}: {len(run.records)} records, expected the budget of {result.budget}"
                        )
                    result.runs[(t.name, method, seed)] = run
        if not result.runs:
            raise ParseError(f"{root}: no run records found")
        return result


def _static_source(task, j: int, n_s: int, base_seed: int, flip: bool) -> gp.GpSurrogate:
    """Task ``j``'s offline source, the same for every target: a GP on n_s of
    its outputs (negated when ``flip``), the first n_s rows of a seeded shuffle
    of a tabular task's arrays, or n_s seeded noisy uniform draws otherwise."""
    seed = derived_seed(base_seed, _TAG_SOURCE_ROWS, j)
    if isinstance(task, TabularTask):
        order = np.random.default_rng(seed).permutation(len(task.y))[:n_s]
        x, ys = task.table.encoded[order], task.y[order]
    else:
        configs = space_mod.sample_uniform(task.space, n_s, seed)
        objective = task.make_objective(np.random.default_rng(derived_seed(seed, 1)))
        x, ys = space_mod.encode_batch(task.space, configs), np.array([objective(c) for c in configs])
    return _fit_source(x, -ys if flip else ys, derived_seed(base_seed, _TAG_SOURCE_FIT, j))


def _fit_source(x: np.ndarray, ys: np.ndarray, seed: int) -> gp.GpSurrogate:
    """A source surrogate: a GP on encoded inputs and standardized ys."""
    return gp.fit(x, gp.standardize(ys), seed=seed)


def _tasks_of_one_space(tasks) -> list:
    """A protocol's tasks as a list, checked to share the first task's space."""
    tasks = list(tasks)
    for task in tasks:
        if task.space != tasks[0].space:
            raise ValidationError(f"task {task.name!r} has another space than the first task {tasks[0].name!r}")
    return tasks


def _check_target(index, n_tasks: int) -> None:
    if not is_int(index) or not 0 <= index < n_tasks:
        raise ValidationError(f"target {index!r} is not a task index in [0, {n_tasks})")


def build_static_sources(
    tasks, target_index: int, n_s: int, base_seed: int = 0, flip_source_outputs: bool = False
) -> SourceEnsemble:
    """Offline source ensemble for one target: every other task contributes a
    GP fitted on n_s of its observations. The target's own rows never enter."""
    _check_target(target_index, len(tasks))
    return SourceEnsemble(models=tuple(
        _static_source(task, j, n_s, base_seed, flip_source_outputs)
        for j, task in enumerate(tasks) if j != target_index
    ))


def _augment_true_values(run_result: RunResult, task) -> RunResult:
    """Attach noiseless per-trial values for synthetic tasks.

    Observation noise stays in what the optimizer saw; the extra fields let
    metrics measure true progress against the known optimum. Like
    ``incumbent_y``, ``incumbent_y_true`` skips failed trials and is ``None``
    until one succeeds.
    """
    if not isinstance(task, SyntheticTask):
        return run_result
    best = None
    for record in run_result.records:
        x = np.array([record["config"][p.name] for p in task.space.params], dtype=float)
        y_true = float(task.noiseless(x[None, :])[0])
        if not record["failed"]:
            best = y_true if best is None else min(best, y_true)
        record["y_true"] = y_true
        record["incumbent_y_true"] = best
    return run_result


def _experiment(protocol, tasks, methods, budget, seeds, n_s, n_cv, n_candidates, base_seed,
                workers) -> ExperimentResult:
    """The empty result of one experiment on ``tasks`` (the targets), after
    the checks both protocols share; ``seeds`` is a count or a list."""
    methods = list(methods)
    if not (is_int(seeds) or isinstance(seeds, (list, tuple)) and all(map(is_int, seeds))):
        raise ValidationError(f"seeds must be an integer or a list of integers; got {seeds!r}")
    seeds = list(range(seeds)) if is_int(seeds) else [int(s) for s in seeds]
    if not tasks:
        raise ValidationError("an experiment needs at least one target task")
    if not is_int(budget) or budget < bo.N_INIT:
        raise ValidationError(f"budget must be an integer of at least N_INIT={bo.N_INIT}; got {budget!r}")
    if not is_int(n_s) or n_s < 1:
        raise ValidationError(f"a source needs an integer number of observations N_S >= 1; got {n_s!r}")
    if not methods or not set(methods) <= set(bo.POLICIES) or len(set(methods)) < len(methods):
        raise ValidationError(f"methods must be distinct names from {bo.POLICIES}; got {methods}")
    bo.OptimizerState(tasks[0].space, None, methods[0], 0, n_cv, n_candidates)  # checks n_cv, n_candidates
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValidationError("seeds must be a positive count or distinct non-negative integers")
    if not is_int(base_seed) or base_seed < 0:
        raise ValidationError(f"base_seed must be a non-negative integer; got {base_seed!r}")
    if not is_int(workers):
        raise ValidationError(f"workers must be an integer; got {workers!r}")
    return ExperimentResult(
        protocol=protocol,
        budget=budget,
        n_s=n_s,
        n_cv=n_cv,
        methods=methods,
        seeds=seeds,
        tasks=[TaskMeta(t.name, t.y_min, t.y_max) for t in tasks],
    )


def _map_jobs(fn, args_list, workers: int) -> list:
    """``fn(*args)`` for each entry of ``args_list``, results in input order.

    With ``workers`` > 1 the calls run in a pool of that many processes;
    otherwise they run one after another in this process.
    """
    if workers <= 1:
        return [fn(*args) for args in args_list]
    from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        return [future.result() for future in futures]


def _run_job(task, ti, seed, sources, method, budget, n_cv, n_candidates, base_seed):
    """One run of ``method`` on task ``ti`` under BO seed ``seed``, with the
    noiseless incumbents added; module-level so worker pools can call it. Its
    run and noise seeds depend on (``base_seed``, ``ti``, ``seed``) only, so
    every method shares them; a tabular task's grid is its shared table."""
    if isinstance(task, TabularTask):
        objective, grid = (lambda config: task.y[task.table.index(config)]), task.table
    else:
        noise = np.random.default_rng(derived_seed(base_seed, _TAG_NOISE, ti, seed))
        objective, grid = task.make_objective(noise), None
    run_seed = derived_seed(base_seed, _TAG_RUN, ti, seed)
    result = bo.run(
        task.space, objective, sources=sources, policy=method, budget=budget, seed=run_seed,
        n_cv=n_cv, n_candidates=n_candidates, candidate_grid=grid,
    )
    return _augment_true_values(result, task)


def run_static(
    tasks,
    methods,
    budget: int,
    seeds,
    n_s: int = 50,
    n_cv: int = 5,
    n_candidates: int = bo.N_CANDIDATES,
    base_seed: int = 0,
    targets: list[int] | None = None,
    flip_source_outputs: bool = False,
    workers: int = 1,
) -> ExperimentResult:
    """Leave-one-out protocol: each selected task becomes the target once,
    with the remaining tasks as offline sources.

    Initial designs are shared across methods per (task, seed); observation
    noise streams are shared across methods as well. Independent runs may
    execute in parallel (``workers`` > 1) without changing any result.
    """
    tasks = _tasks_of_one_space(tasks)
    if len(tasks) < 2:
        raise ValidationError("the static protocol needs at least two tasks")
    target_indices = list(range(len(tasks))) if targets is None else list(targets)
    for ti in target_indices:
        _check_target(ti, len(tasks))
    if len(set(target_indices)) < len(target_indices):
        raise ValidationError(f"targets list a task more than once: {target_indices}")
    result = _experiment("static", [tasks[i] for i in target_indices], methods, budget, seeds, n_s, n_cv,
                         n_candidates, base_seed, workers)
    # One source per task, fitted once and only for transbo; the first target's own only for a second.
    models, first = [], target_indices[0]
    if "transbo" in result.methods:
        models = list(build_static_sources(tasks, first, n_s, base_seed, flip_source_outputs).models)
        models.insert(first, _static_source(tasks[first], first, n_s, base_seed, flip_source_outputs)
                      if len(target_indices) > 1 else None)
    keys, jobs = [], []
    for ti in target_indices:
        sources = SourceEnsemble(models=tuple(models[:ti] + models[ti + 1:]))
        for seed in result.seeds:
            for method in result.methods:
                keys.append((tasks[ti].name, method, seed))
                jobs.append((tasks[ti], ti, seed, sources, method, budget, n_cv, n_candidates, base_seed))
    result.runs.update(zip(keys, _map_jobs(_run_job, jobs, workers)))
    return result


def _dynamic_chain(tasks, method, seed, budget, n_s, n_cv, n_candidates, base_seed):
    """One method's sequential pass over the arriving tasks; under transbo the
    first n_s records of each finished task but the last fit its source."""
    out = []
    models: list[gp.GpSurrogate] = []
    for ti, task in enumerate(tasks):
        sources = SourceEnsemble(models=tuple(models))
        run_result = _run_job(task, ti, seed, sources, method, budget, n_cv, n_candidates, base_seed)
        out.append((task.name, run_result))
        if method == "transbo" and ti + 1 < len(tasks):
            head = run_result.records[:n_s]
            x = space_mod.encode_batch(task.space, [Configuration(r["config"]) for r in head])
            fit_seed = derived_seed(base_seed, _TAG_SOURCE_FIT, ti, seed)
            models.append(_fit_source(x, np.array([r["y"] for r in head]), fit_seed))
    return out


def run_dynamic(
    tasks,
    methods,
    budget: int,
    seeds,
    n_s: int = 50,
    n_cv: int = 5,
    n_candidates: int = bo.N_CANDIDATES,
    base_seed: int = 0,
    workers: int = 1,
) -> ExperimentResult:
    """Sequential-arrival protocol: task i uses the previously finished tasks
    as sources. Each method accumulates sources from its own runs; the first
    n_s observations of a finished task form its source history.

    Tasks within one (method, seed) chain are inherently sequential; with
    ``workers`` > 1 the independent chains run in parallel.
    """
    tasks = _tasks_of_one_space(tasks)
    result = _experiment("dynamic", tasks, methods, budget, seeds, n_s, n_cv, n_candidates, base_seed, workers)
    chains = [(method, seed) for method in result.methods for seed in result.seeds]
    jobs = [(tasks, m, s, budget, n_s, n_cv, n_candidates, base_seed) for m, s in chains]
    for (method, seed), chain in zip(chains, _map_jobs(_dynamic_chain, jobs, workers)):
        for task_name, run_result in chain:
            result.runs[(task_name, method, seed)] = run_result
    return result


def top_counts(result: ExperimentResult) -> dict[str, tuple[int, int]]:
    """Tasks on which each method reaches the best / second-best mean final
    performance; ties credit every tied method."""
    counts = {m: [0, 0] for m in result.methods}
    for t in result.tasks:
        finals = {
            m: float(np.mean([result.runs[(t.name, m, s)].incumbents()[-1] for s in result.seeds]))
            for m in result.methods
        }
        distinct = sorted(set(finals.values()))
        for m, v in finals.items():
            if v == distinct[0]:
                counts[m][0] += 1
            elif len(distinct) > 1 and v == distinct[1]:
                counts[m][1] += 1
    return {m: (c[0], c[1]) for m, c in counts.items()}


def _write_csv(path, header, rows) -> str:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


def report(result: ExperimentResult, out_dir) -> list[str]:
    """Emit per-trial metric curves and per-run weight trajectories as CSV.

    Files: adtm.csv and avg_rank.csv (one column per method), overhead.csv
    (mean cumulative suggestion wallclock), weights/*.csv per transfer run,
    and top_counts.csv for dynamic results.
    """
    if not result.runs:
        raise ValidationError("cannot report an empty result")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    methods = result.methods
    pairs = [(t, seed) for t in result.tasks for seed in result.seeds]

    # ADTM: per method, averaged over seeds of the task-averaged curve.
    # Synthetic runs carry noiseless incumbents; use those where present.
    adtm_by_method = {}
    for method in methods:
        per_seed = []
        for seed in result.seeds:
            curves = [result.incumbent_curve(t.name, method, seed, true_values=True) for t in result.tasks]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                per_seed.append(
                    adtm(curves, [t.y_min for t in result.tasks], [t.y_max for t in result.tasks])
                )
        adtm_by_method[method] = np.mean(per_seed, axis=0)

    # Average rank across methods, computed per (task, seed, trial).
    rank_sums = np.zeros((result.budget, len(methods)))
    for t, seed in pairs:
        rank_sums += average_rank(
            np.stack([result.incumbent_curve(t.name, m, seed) for m in methods], axis=-1)
        )
    ranks = rank_sums / max(len(pairs), 1)

    # Mean cumulative suggestion overhead per trial.
    overhead = {
        m: np.mean(
            [
                np.cumsum([r["suggest_wallclock_ms"] for r in result.runs[(t.name, m, seed)].records])
                for t, seed in pairs
            ],
            axis=0,
        )
        for m in methods
    }

    written = []
    for name, columns in (
        ("adtm.csv", [adtm_by_method[m] for m in methods]),
        ("avg_rank.csv", ranks.T),
        ("overhead.csv", [overhead[m] for m in methods]),
    ):
        rows = [[i + 1] + [repr(float(c[i])) for c in columns] for i in range(result.budget)]
        written.append(_write_csv(out / name, ["trial"] + methods, rows))

    # Weight trajectories for runs that learned them.
    weights_dir = out / "weights"
    for (task, method, seed), run_result in sorted(result.runs.items()):
        rows = [
            r
            for r in run_result.records
            if r.get("p_source") is not None and r.get("p_target") is not None
        ]
        if not rows:
            continue
        weights_dir.mkdir(exist_ok=True)
        k = max(len(r["w"] or []) for r in rows)
        written.append(
            _write_csv(
                weights_dir / f"{task}__{method}__seed{seed}.csv",
                ["iteration", "p_source", "p_target"] + [f"w_{i + 1}" for i in range(k)],
                [
                    [r["iteration"], repr(float(r["p_source"])), repr(float(r["p_target"]))]
                    + [repr(float(v)) for v in (r["w"] or [])]
                    for r in rows
                ],
            )
        )

    if result.protocol == "dynamic":
        counts = top_counts(result)
        written.append(
            _write_csv(
                out / "top_counts.csv",
                ["method", "top1", "top2"],
                [[m, counts[m][0], counts[m][1]] for m in methods],
            )
        )
    return written
