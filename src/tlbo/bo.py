"""Sequential optimization loop with EI acquisition over sampled candidates.

Policies: ``transbo`` (two-phase transfer surrogate), ``igp`` (independent
target GP, no source knowledge), and ``random``. Every run starts with three
seeded uniform evaluations shared across policies, then alternates suggest /
observe. Performance is minimized throughout (y is, e.g., validation error).
The optimizer state holds the observations once, as the arrays ``x`` and
``y`` the target GP trains on. ``suggest`` returns, with the configuration,
the record fields it decided (the weights ``w``, ``p_source``, ``p_target``
and ``fallback``), and ``run`` merges them into that trial's record, the one
per-trial copy of the weights. Phase 2's target weight never decreases: the
state keeps the largest one learned, and phase 2 stops once it reaches 1.

All randomness is drawn from streams keyed by (run seed, purpose,
iteration), so candidate pools, initial designs, and GP restarts are
reproducible and policy-independent.
"""
from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import gp, space as space_mod, transfer
from .errors import FitError, ParseError, ValidationError
from .ranking import SimplexWeights
from .space import ConfigSpace, ConfigTable, Configuration
from .transfer import SourceEnsemble

_special_ufuncs = gp._scipy_extension("special", "_special_ufuncs")

POLICIES = ("transbo", "igp", "random")
N_INIT = 3
N_CANDIDATES = 5000

# The fields a suggestion decides, as the initial design's records hold them.
_UNDECIDED = {"w": None, "p_source": None, "p_target": None, "fallback": False}

# Stream ids for derived RNGs.
_STREAM_INIT = 0
_STREAM_POOL = 1
_STREAM_GPFIT = 2


def derived_seed(seed: int, *key: int) -> int:
    """A stable 32-bit seed derived from a run seed and a purpose key."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


def _stream_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    )


def expected_improvement(mean, variance, y_best):
    """Closed-form expected improvement for Gaussian posteriors, minimizing:
    the (m,) EI of the (m,) ``mean`` and ``variance`` arrays below ``y_best``.

    With sigma > 0 and u = (y_best - mean) / sigma:
    EI = (y_best - mean) * Phi(u) + sigma * phi(u). At sigma = 0 it
    degenerates to max(y_best - mean, 0).
    """
    if np.any(variance < 0):
        raise ValidationError("variance must be nonnegative")
    improvement = y_best - mean
    ei = np.maximum(improvement, 0.0)
    positive = variance > 0
    if np.any(positive):
        sigma = np.sqrt(variance[positive])
        u = improvement[positive] / sigma
        pdf = np.exp(-0.5 * u**2) / math.sqrt(2.0 * math.pi)
        ei[positive] = improvement[positive] * _special_ufuncs.ndtr(u) + sigma * pdf
    return np.maximum(ei, 0.0)


def _config_key(config: Configuration):
    return tuple(sorted(config.values.items()))


@dataclass
class OptimizerState:
    """Mutable state of one sequential run.

    ``x`` (n, D) and ``y`` (n,) hold the encoded inputs and performances of
    the trials so far, row i for iteration i, and ``failed`` (n,) marks the
    rows whose ``y`` is imputed; only ``observe`` grows them. Neither are
    ``target_gp`` and ``prev_p_target``, which ``observe`` and ``suggest`` set.
    ``grid``, a ``ConfigTable`` of ``space`` that the state shares and never
    changes, limits suggestions to its rows still marked in ``unused``;
    ``observe`` clears a row's mark when it records that row. The settings are
    checked when the state is built: ``None`` sources become the empty
    ensemble, and ``force_p``, for ``transbo`` only, a ``SimplexWeights``.
    """

    space: ConfigSpace
    sources: SourceEnsemble | None
    policy: str
    seed: int
    n_cv: int = transfer.N_CV_DEFAULT
    n_candidates: int = N_CANDIDATES
    grid: ConfigTable | None = None
    force_p: SimplexWeights | tuple[float, float] | None = None
    prev_p_target: float = field(init=False, default=0.0)
    target_gp: gp.GpSurrogate | None = field(init=False, default=None)
    x: np.ndarray = field(init=False)
    y: np.ndarray = field(init=False)
    failed: np.ndarray = field(init=False)
    unused: np.ndarray | None = field(init=False)

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValidationError(f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        for key, low, why in (
            ("seed", 0, "seed must be non-negative"),
            ("n_cv", 2, "cross-validation needs at least 2 folds"),
            ("n_candidates", 1, "the EI candidate pool needs at least one candidate"),
        ):
            if not space_mod.is_int(getattr(self, key)):
                raise ValidationError(f"{key} must be an integer; got {getattr(self, key)!r}")
            if getattr(self, key) < low:
                raise ValidationError(why)
        if self.sources is None:
            self.sources = SourceEnsemble(models=())
        if any(m.input_dim != self.space.encoded_dim for m in self.sources.models):
            raise ValidationError(f"sources must take the space's {self.space.encoded_dim}-D encoded inputs")
        if self.force_p is not None:
            if self.policy != "transbo":
                raise ValidationError(f"force_p applies to the transbo policy only, not {self.policy!r}")
            if not isinstance(self.force_p, SimplexWeights):
                self.force_p = SimplexWeights(self.force_p)
            if self.force_p.dim != 2:
                raise ValidationError("force_p must hold two weights, (p_source, p_target)")
            if self.force_p.values[0] > 0 and not self.sources.models:
                raise ValidationError("force_p gives weight to the sources, but there are none")
        if self.grid is not None and not (isinstance(self.grid, ConfigTable) and self.grid.space == self.space):
            raise ValidationError("the candidate grid must be a ConfigTable of the run's space")
        self.x = np.empty((0, self.space.encoded_dim))
        self.y = np.empty(0)
        self.failed = np.empty(0, dtype=bool)
        self.unused = None if self.grid is None else np.ones(len(self.grid), dtype=bool)


def _remaining(state: OptimizerState) -> np.ndarray:
    """Indices of the grid's unevaluated rows, ascending; never empty."""
    remaining = np.flatnonzero(state.unused)
    if remaining.size == 0:
        raise ValidationError("no unevaluated rows remain in the candidate grid")
    return remaining


def _candidate_pool(state: OptimizerState, iteration: int):
    """Candidate set at a given iteration: (encoded matrix, config getter).

    Continuous spaces draw a fresh seeded pool that depends only on
    (seed, iteration); tabular runs use all unevaluated rows.
    """
    if state.grid is not None:
        remaining = _remaining(state)
        return state.grid.encoded[remaining], lambda i: state.grid.config(int(remaining[i]))
    rng = _stream_rng(state.seed, _STREAM_POOL, iteration)
    cols = space_mod._sample_arrays(state.space, state.n_candidates, rng)
    enc = space_mod._encode_arrays(state.space, cols, state.n_candidates)
    return enc, lambda i: space_mod._config_from_arrays(state.space, cols, i)


def _random_suggestion(state: OptimizerState, iteration: int) -> Configuration:
    rng = _stream_rng(state.seed, _STREAM_POOL, iteration)
    if state.grid is not None:
        return state.grid.config(int(rng.choice(_remaining(state))))
    cols = space_mod._sample_arrays(state.space, 1, rng)
    return space_mod._config_from_arrays(state.space, cols, 0)


def _refresh_transfer_weights(state: OptimizerState):
    """Phase-1 and phase-2 weight refresh for one suggestion.

    The source means at the history inputs are predicted once, as one
    (n, K) matrix that phase 1 and every cross-validation fold of phase 2
    slice. Phase 1 always re-learns ``w``, which the records carry, by one
    solve from the uniform point; nothing is carried over between
    suggestions. Phase 2's target weight is the largest one learned so far
    (the non-decreasing prior), so it is not re-learned once that reaches 1.
    """
    x, y = state.x, state.y
    a = transfer.source_means(state.sources, x)
    w = None
    if state.sources.models:
        w = transfer.learn_source_weights(a, y)
    if state.force_p is not None:
        return w, state.force_p
    if state.prev_p_target < 1.0:
        learned = transfer.learn_phase2_weights(a, x, y, state.target_gp.params, n_cv=state.n_cv)
        state.prev_p_target = max(float(learned.values[1]), state.prev_p_target)
    t = state.prev_p_target
    return w, SimplexWeights([1.0 - t, t])


def suggest(state: OptimizerState) -> tuple[Configuration, dict[str, Any]]:
    """Pick the next configuration under the state's policy.

    Returns ``(config, decided)``: ``decided`` holds the record fields the
    suggestion decided, the source weights ``w`` and the source/target
    balance ``p_source``, ``p_target`` behind it (``None`` for ``igp``,
    ``random`` and the fallback; ``w`` also without sources), and
    ``fallback``, true when a missing target surrogate (a failed fit, or no
    success yet) forced a random suggestion on a policy other than ``random``.

    Requires the initial design to be complete. EI's incumbent is the least
    standardized target of the target GP; ties break toward the lowest
    candidate index. Under ``transbo`` the weights come from
    ``_refresh_transfer_weights``.
    """
    iteration = state.y.size
    if iteration < N_INIT:
        raise ValidationError("suggest called during the initialization phase")
    if state.target_gp is None:
        return _random_suggestion(state, iteration), {**_UNDECIDED, "fallback": state.policy != "random"}

    decided = dict(_UNDECIDED)
    model_predict = state.target_gp.predict
    if state.policy == "transbo":
        w, p = _refresh_transfer_weights(state)
        decided.update(w=w.values.tolist() if w is not None else None,
                       p_source=float(p.values[0]), p_target=float(p.values[1]))
        model_predict = lambda q: transfer.tl_predict(state.sources, q, state.target_gp, w, p)

    enc, config_at = _candidate_pool(state, iteration)
    y_best = float(state.target_gp.train_targets.min())
    mean, var = model_predict(enc)
    ei = expected_improvement(mean, var, y_best)
    return config_at(int(np.argmax(ei))), decided


def observe(state: OptimizerState, config: Configuration, y: float | None) -> OptimizerState:
    """Append an observation and refit the target GP, except under ``random``; returns ``state``.

    Only ``config`` is encoded, as the new row of ``state.x``. ``y=None``
    records a failed evaluation, imputed as the worst value so far plus one
    standardized unit. Until a trial succeeds there is no such value: the
    failed rows hold the placeholder 0.0, no target GP is fitted, and the
    first success re-imputes them from its own value. A failed fit, like a
    run without a success, leaves ``state.target_gp`` at ``None``, so the
    next suggestion falls back to random.
    """
    failed = y is None
    if not failed and not space_mod.is_finite_number(y):
        raise ValidationError(f"observed performance must be a finite number; got {y!r}")
    fit_seed = derived_seed(state.seed, _STREAM_GPFIT, state.y.size)
    no_success_yet = state.failed.all()
    if failed:
        y = 0.0 if no_success_yet else _impute_failure(state.y)
    state.x = np.vstack([state.x, space_mod.encode_batch(state.space, [config])])
    state.y = np.append(state.y, float(y))
    state.failed = np.append(state.failed, failed)
    if not failed and no_success_yet:
        state.y[state.failed] = _impute_failure(state.y[-1:])
    if state.grid is not None:
        with contextlib.suppress(KeyError):
            state.unused[state.grid.index(config)] = False
    if state.policy == "random" or state.failed.all():
        state.target_gp = None
        return state
    try:
        state.target_gp = gp.fit(state.x, gp.standardize(state.y), seed=fit_seed)
    except FitError:
        state.target_gp = None
    return state


@dataclass
class RunResult:
    """Full output of one run: the per-trial records, in trial order.

    Each record carries its ``iteration``, the ``config`` and its observed
    ``y``, and the weights behind its suggestion (``w``, ``p_source``,
    ``p_target``; ``None`` where none were learned).
    """

    records: list[dict]

    def incumbents(self, key: str = "incumbent_y") -> np.ndarray:
        """Per-trial incumbents under ``key``; ``+inf`` before the first
        successful trial."""
        return np.array([math.inf if r[key] is None else r[key] for r in self.records])

    def to_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "RunResult":
        """Read ``to_jsonl``'s file; a line that is not JSON raises
        ``ParseError`` naming the file and the line number."""
        records = []
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    try:
                        records.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        raise ParseError(f"{path}: line {number}: not a JSON record ({exc})") from exc
        return cls(records=records)


def _initial_design(state: OptimizerState) -> list[Configuration]:
    rng = _stream_rng(state.seed, _STREAM_INIT)
    if state.grid is not None:
        picks = rng.choice(len(state.grid), size=N_INIT, replace=False)
        return [state.grid.config(int(i)) for i in picks]
    cols = space_mod._sample_arrays(state.space, N_INIT, rng)
    return [space_mod._config_from_arrays(state.space, cols, i) for i in range(N_INIT)]


def _impute_failure(y: np.ndarray) -> float:
    """Worst value of the non-empty ``y`` plus one standardized unit."""
    spread = float(y.std())
    return float(y.max()) + (spread if spread > 0 else 1.0)


def run(
    space: ConfigSpace,
    objective: Callable[[Configuration], float],
    sources: SourceEnsemble | None = None,
    policy: str = "transbo",
    budget: int = 30,
    seed: int = 0,
    n_cv: int = transfer.N_CV_DEFAULT,
    n_candidates: int = N_CANDIDATES,
    candidate_grid: ConfigTable | None = None,
    force_p: tuple[float, float] | None = None,
) -> RunResult:
    """Run one sequential optimization with the given policy.

    The first ``N_INIT`` evaluations are seeded uniform draws (shared across
    policies for a fixed seed); the rest follow suggest/observe. An objective
    call that raises, or returns no finite number (a bool or a string is
    none), is imputed by ``observe`` and the run continues; its
    record carries ``failed``, ``error`` and the imputed ``y`` (0.0 if no
    trial ever succeeds), and ``incumbent_y`` is the best value of the trials
    that did not fail (``None`` until one succeeds). ``w``, ``p_source``,
    ``p_target`` and ``fallback`` are what ``suggest`` decided (``None`` and
    false in the initial design). ``fit_nfev``, ``fit_start`` and ``fit_jitter`` are those
    fields of the ``GpSurrogate`` that refit in that trial's ``observe`` (0,
    ``None`` and ``None`` when no refit ran, as under ``random``, or it failed).
    ``candidate_grid``, a ``ConfigTable`` of ``space`` (build one with
    ``space.ConfigTable.from_configs(space, configs)``), limits suggestions to
    its unevaluated rows. ``force_p``, for ``transbo`` only, fixes ``p`` =
    (p_source, p_target) in every suggestion; p_source > 0 needs sources.
    Every argument is checked before the first objective call.
    """
    if not space_mod.is_int(budget) or budget < N_INIT:
        raise ValidationError(f"budget must be an integer of at least N_INIT={N_INIT}; got {budget!r}")
    state = OptimizerState(space, sources, policy, seed, n_cv, n_candidates, candidate_grid, force_p)
    if state.grid is not None and len(state.grid) < budget:
        raise ValidationError("budget exceeds the number of rows in the candidate grid")
    init_configs = _initial_design(state)
    records: list[dict] = []
    incumbent = None
    for i in range(budget):
        t0 = time.perf_counter()
        config, decided = (init_configs[i], _UNDECIDED) if i < N_INIT else suggest(state)
        wallclock_ms = (time.perf_counter() - t0) * 1000.0
        error = None
        try:
            y = objective(config)
            if not space_mod.is_finite_number(y):
                raise ValueError(f"objective returned {y!r}, not a finite number")
            y = float(y)
        except Exception as exc:
            y = None
            error = f"{type(exc).__name__}: {exc}"
        else:
            incumbent = y if incumbent is None else min(incumbent, y)
        observe(state, config, y)
        records.append(
            {
                "iteration": i,
                "config": {
                    k: (v.item() if isinstance(v, np.generic) else v)
                    for k, v in config.values.items()
                },
                "y": y,
                "incumbent_y": incumbent,
                **decided,
                "failed": error is not None,
                "error": error,
                "suggest_wallclock_ms": wallclock_ms,
                "fit_nfev": state.target_gp.fit_nfev if state.target_gp is not None else 0,
                "fit_start": state.target_gp.fit_start if state.target_gp is not None else None,
                "fit_jitter": state.target_gp.fit_jitter if state.target_gp is not None else None,
            }
        )
    # A failure's imputed value, which a later first success may have set.
    for record, value in zip(records, state.y):
        if record["failed"]:
            record["y"] = float(value)
    return RunResult(records=records)
