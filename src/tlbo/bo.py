"""Sequential optimization loop with EI acquisition over sampled candidates.

Policies: ``transbo`` (two-phase transfer surrogate), ``igp`` (independent
target GP, no source knowledge), and ``random``. Every run starts with three
seeded uniform evaluations shared across policies, then alternates suggest /
observe. Performance is minimized throughout (y is, e.g., validation error).
``suggest`` returns the weights ``w`` and ``p`` it used along with the
configuration, and ``run`` writes them into that trial's record; the records
are the only per-trial copy of the weights.

All randomness is drawn from streams keyed by (run seed, purpose,
iteration), so candidate pools, initial designs, and GP restarts are
reproducible and policy-independent.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.special import ndtr

from . import gp, space as space_mod, transfer
from .errors import FitError, ValidationError
from .ranking import SimplexWeights
from .space import ConfigSpace, Configuration
from .transfer import SourceEnsemble

POLICIES = ("transbo", "igp", "random")
N_INIT = 3
N_CANDIDATES = 5000

# Stream ids for derived RNGs.
_STREAM_INIT = 0
_STREAM_POOL = 1
_STREAM_GPFIT = 2
_STREAM_NOISE = 3


def derived_seed(seed: int, *key: int) -> int:
    """A stable 32-bit seed derived from a run seed and a purpose key."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1)[0])


def _stream_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    )


def expected_improvement(mean, variance, y_best):
    """Closed-form expected improvement for a Gaussian posterior, minimizing.

    With sigma > 0 and u = (y_best - mean) / sigma:
    EI = (y_best - mean) * Phi(u) + sigma * phi(u). At sigma = 0 it
    degenerates to max(y_best - mean, 0).
    """
    mean_arr = np.asarray(mean, dtype=float)
    var_arr = np.asarray(variance, dtype=float)
    scalar = mean_arr.ndim == 0
    mean_arr = np.atleast_1d(mean_arr)
    var_arr = np.atleast_1d(var_arr)
    if np.any(var_arr < 0):
        raise ValidationError("variance must be nonnegative")
    improvement = y_best - mean_arr
    ei = np.maximum(improvement, 0.0)
    positive = var_arr > 0
    if np.any(positive):
        sigma = np.sqrt(var_arr[positive])
        u = improvement[positive] / sigma
        pdf = np.exp(-0.5 * u**2) / math.sqrt(2.0 * math.pi)
        ei[positive] = improvement[positive] * ndtr(u) + sigma * pdf
    ei = np.maximum(ei, 0.0)
    return float(ei[0]) if scalar else ei


@dataclass(frozen=True)
class Observation:
    config: Configuration
    y: float
    iteration: int


@dataclass
class TaskHistory:
    """Ordered observations of one task."""

    observations: list[Observation] = field(default_factory=list)

    def __len__(self):
        return len(self.observations)

    def add(self, obs: Observation) -> None:
        if self.observations and obs.iteration <= self.observations[-1].iteration:
            raise ValidationError("iteration indices must be strictly increasing")
        self.observations.append(obs)

    def ys(self) -> np.ndarray:
        return np.array([o.y for o in self.observations])

    def configs(self) -> list[Configuration]:
        return [o.config for o in self.observations]


class _TabularPool:
    """Finite candidate grid; suggestions draw from unevaluated rows only."""

    def __init__(self, space: ConfigSpace, configs: list[Configuration]):
        if not configs:
            raise ValidationError("tabular candidate grid must be non-empty")
        self.configs = list(configs)
        self.encoded = space_mod.encode_batch(space, self.configs)
        self._index = {_config_key(c): i for i, c in enumerate(self.configs)}
        self.evaluated: set[int] = set()

    def remaining(self) -> np.ndarray:
        return np.array([i for i in range(len(self.configs)) if i not in self.evaluated], dtype=int)

    def mark(self, config: Configuration) -> None:
        idx = self._index.get(_config_key(config))
        if idx is not None:
            self.evaluated.add(idx)


def _config_key(config: Configuration):
    return tuple(sorted(config.values.items()))


@dataclass
class OptimizerState:
    """Mutable state of one sequential run."""

    space: ConfigSpace
    history: TaskHistory
    sources: SourceEnsemble
    policy: str
    budget: int
    seed: int
    n_init: int = N_INIT
    n_cv: int = transfer.N_CV_DEFAULT
    n_candidates: int = N_CANDIDATES
    prev_p_target: float = 0.0
    target_gp: gp.GpSurrogate | None = None
    pool: _TabularPool | None = None
    force_p: tuple[float, float] | None = None

    def encoded_history(self) -> tuple[np.ndarray, np.ndarray]:
        x = space_mod.encode_batch(self.space, self.history.configs())
        return x, self.history.ys()


def _candidate_pool(state: OptimizerState, iteration: int):
    """Candidate set at a given iteration: (encoded matrix, config getter).

    Continuous spaces draw a fresh seeded pool that depends only on
    (seed, iteration); tabular runs use all unevaluated rows.
    """
    if state.pool is not None:
        remaining = state.pool.remaining()
        if remaining.size == 0:
            raise ValidationError("no unevaluated rows remain in the candidate grid")
        enc = state.pool.encoded[remaining]
        return enc, lambda i: state.pool.configs[int(remaining[i])]
    rng = _stream_rng(state.seed, _STREAM_POOL, iteration)
    cols = space_mod._sample_arrays(state.space, state.n_candidates, rng)
    enc = space_mod._encode_arrays(state.space, cols, state.n_candidates)
    return enc, lambda i: space_mod._config_from_arrays(state.space, cols, i)


def _random_suggestion(state: OptimizerState, iteration: int) -> Configuration:
    if state.pool is not None:
        remaining = state.pool.remaining()
        if remaining.size == 0:
            raise ValidationError("no unevaluated rows remain in the candidate grid")
        rng = _stream_rng(state.seed, _STREAM_POOL, iteration)
        return state.pool.configs[int(rng.choice(remaining))]
    rng = _stream_rng(state.seed, _STREAM_POOL, iteration)
    cols = space_mod._sample_arrays(state.space, 1, rng)
    return space_mod._config_from_arrays(state.space, cols, 0)


def _refresh_transfer_weights(state: OptimizerState, x: np.ndarray, y: np.ndarray):
    """Phase-1 and phase-2 weight refresh for one suggestion.

    The source means at the history inputs are predicted once, as one
    (n, K) matrix that phase 1 and every cross-validation fold of phase 2
    slice. Phase 1 always re-learns ``w``, which the records carry, by one
    solve from the uniform point; nothing is carried over between
    suggestions. Phase 2 is not re-learned once the non-decreasing prior has
    pinned ``p_target`` at exactly 1: the prior would map any learned ``p``
    to ``[0, 1]``, so the cross-validated solve could not change the result.
    """
    a = transfer.source_means(state.sources, x)
    w = None
    if state.sources.k >= 1:
        w = transfer.learn_source_weights(a, y)
    if state.force_p is not None:
        p = SimplexWeights(list(state.force_p))
    elif state.prev_p_target == 1.0:
        p = SimplexWeights([0.0, 1.0])
    else:
        p_raw = transfer.learn_phase2_weights(a, x, y, state.target_gp.params, n_cv=state.n_cv)
        p = transfer.apply_nondecreasing_prior(p_raw, state.prev_p_target)
        state.prev_p_target = float(p.values[1])
    return w, p


def suggest(
    state: OptimizerState,
) -> tuple[Configuration, SimplexWeights | None, SimplexWeights | None]:
    """Pick the next configuration under the state's policy.

    Returns ``(config, w, p)``: the source weights and the source/target
    balance behind the suggestion. Both are ``None`` for ``igp``, ``random``
    and the fit-failure fallback; ``w`` is also ``None`` without sources.

    Requires the initial design to be complete. EI ties break toward the
    lowest candidate index. On a missing target surrogate (fit failure),
    falls back to a random suggestion; ``run`` flags that trial's record.

    Under ``transbo``, each call re-learns the phase-1 source weights ``w``
    (kept for the records). Once ``p_target`` has reached 1, phase 2 is no
    longer re-learned, since the non-decreasing prior makes its result
    irrelevant; the suggestion then comes from the target GP alone.
    """
    iteration = len(state.history)
    if iteration < state.n_init:
        raise ValidationError("suggest called during the initialization phase")
    if state.policy == "random":
        return _random_suggestion(state, iteration), None, None
    if state.target_gp is None:
        return _random_suggestion(state, iteration), None, None

    w = p = None
    if state.policy == "igp":
        model_predict = state.target_gp.predict
    elif state.policy == "transbo":
        x, y = state.encoded_history()
        w, p = _refresh_transfer_weights(state, x, y)
        model_predict = lambda q: transfer.tl_predict(state.sources, q, state.target_gp, w, p)
    else:
        raise ValidationError(f"unknown policy {state.policy!r}")

    enc, config_at = _candidate_pool(state, iteration)
    std = gp.standardize(state.history.ys())
    y_best = float(std.z.min())
    mean, var = model_predict(enc)
    ei = expected_improvement(mean, var, y_best)
    return config_at(int(np.argmax(ei))), w, p


def observe(state: OptimizerState, config: Configuration, y: float) -> OptimizerState:
    """Append an observation and refit the target surrogate; returns ``state``.

    A failed fit leaves ``state.target_gp`` at ``None``, so the next
    suggestion falls back to random.
    """
    if not (isinstance(y, (int, float, np.integer, np.floating)) and math.isfinite(float(y))):
        raise ValidationError("observed performance must be finite")
    iteration = len(state.history)
    state.history.add(Observation(config=config, y=float(y), iteration=iteration))
    if state.pool is not None:
        state.pool.mark(config)
    x, ys = state.encoded_history()
    std = gp.standardize(ys)
    try:
        state.target_gp = gp.fit(x, std.z, seed=derived_seed(state.seed, _STREAM_GPFIT, iteration))
    except FitError:
        state.target_gp = None
    return state


@dataclass
class RunResult:
    """Full output of one run: the history and the per-trial records.

    Each record carries the weights behind its suggestion (``w``,
    ``p_source``, ``p_target``; ``None`` where none were learned).
    ``history`` is ``None`` for a run loaded from JSONL.
    """

    history: TaskHistory | None
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
        records = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return cls(history=None, records=records)


def _initial_design(state: OptimizerState) -> list[Configuration]:
    rng = _stream_rng(state.seed, _STREAM_INIT)
    if state.pool is not None:
        if len(state.pool.configs) < state.n_init:
            raise ValidationError("candidate grid smaller than the initial design")
        picks = rng.choice(len(state.pool.configs), size=state.n_init, replace=False)
        return [state.pool.configs[int(i)] for i in picks]
    cols = space_mod._sample_arrays(state.space, state.n_init, rng)
    return [space_mod._config_from_arrays(state.space, cols, i) for i in range(state.n_init)]


def _impute_failure(state: OptimizerState) -> float:
    """Worst observed value plus one standardized unit; anchor 0.0 if none."""
    ys = state.history.ys()
    if ys.size == 0:
        return 0.0
    spread = float(ys.std())
    return float(ys.max()) + (spread if spread > 0 else 1.0)


def run(
    space: ConfigSpace,
    objective: Callable[[Configuration], float],
    sources: SourceEnsemble | None = None,
    policy: str = "transbo",
    budget: int = 30,
    seed: int = 0,
    n_init: int = N_INIT,
    n_cv: int = transfer.N_CV_DEFAULT,
    n_candidates: int = N_CANDIDATES,
    candidate_grid: list[Configuration] | None = None,
    force_p: tuple[float, float] | None = None,
) -> RunResult:
    """Run one sequential optimization with the given policy.

    The first ``n_init`` evaluations are seeded uniform draws (shared across
    policies for a fixed seed); the rest follow suggest/observe. A failing
    objective call is imputed as the worst value seen plus one standardized
    unit and the run continues; its record carries ``failed`` and ``error``,
    and ``incumbent_y`` is the best value of the trials that did not fail
    (``None`` until one succeeds). ``fallback`` marks a random suggestion
    forced by a failed surrogate fit.
    """
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if budget < n_init:
        raise ValidationError(f"budget must be at least n_init={n_init}")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if n_cv < 2:
        raise ValidationError("cross-validation needs at least 2 folds")
    if sources is None:
        sources = SourceEnsemble(models=())
    pool = _TabularPool(space, candidate_grid) if candidate_grid is not None else None
    if pool is not None and len(pool.configs) < budget:
        raise ValidationError("budget exceeds the number of rows in the candidate grid")

    state = OptimizerState(
        space=space,
        history=TaskHistory(),
        sources=sources,
        policy=policy,
        budget=budget,
        seed=seed,
        n_init=n_init,
        n_cv=n_cv,
        n_candidates=n_candidates,
        pool=pool,
        force_p=force_p,
    )
    init_configs = _initial_design(state)
    records: list[dict] = []
    incumbent = None
    for i in range(budget):
        t0 = time.perf_counter()
        fallback = False
        if i < n_init:
            config, w, p = init_configs[i], None, None
        else:
            fallback = policy != "random" and state.target_gp is None
            config, w, p = suggest(state)
        wallclock_ms = (time.perf_counter() - t0) * 1000.0
        error = None
        try:
            y = float(objective(config))
            if not math.isfinite(y):
                raise ValueError("objective returned a non-finite value")
        except Exception as exc:
            y = _impute_failure(state)
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
                "p_source": float(p.values[0]) if p is not None else None,
                "p_target": float(p.values[1]) if p is not None else None,
                "w": w.values.tolist() if w is not None else None,
                "failed": error is not None,
                "error": error,
                "fallback": fallback,
                "suggest_wallclock_ms": wallclock_ms,
            }
        )
    return RunResult(history=state.history, records=records)
