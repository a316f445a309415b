"""Two-phase surrogate transfer: source-weight learning, cross-validated
source/target balancing, and linearly combined Gaussian prediction.

Phase 1 learns simplex weights w over the source surrogates by minimizing
the pairwise ranking loss of their combined mean on the target history.
Phase 2 balances the combined source surrogate against the target surrogate
with a two-dimensional weight p = [p_source, p_target], learned on held-out
ranking loss via deterministic round-robin cross-validation, and clamped so
the target weight never decreases across iterations. Both phases see the
sources only through their (n, K) matrix of predictive means at the target
inputs (``source_means``): the sources are fixed, so the matrix is built once
per history, and each cross-validation fold takes row masks of it. The
transfer surrogate is then one linear combination of the K source surrogates
and the target surrogate, with weights [p_source * w, p_target].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp
from .errors import ValidationError
from .ranking import PredictionMatrix, SimplexWeights, minimize_on_simplex, ranking_loss

N_CV_DEFAULT = 5


@dataclass(frozen=True)
class SourceEnsemble:
    """Base surrogates fitted offline on source-task histories."""

    models: tuple[gp.GpSurrogate, ...]
    task_ids: tuple[str, ...] = ()

    def __post_init__(self):
        models = tuple(self.models)
        ids = tuple(self.task_ids) if self.task_ids else tuple(f"source-{i}" for i in range(len(models)))
        if len(ids) != len(models):
            raise ValidationError("task_ids must match the number of models")
        dims = {m.input_dim for m in models}
        if len(dims) > 1:
            raise ValidationError("all source surrogates must share one input dimension")
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "task_ids", ids)

    @property
    def k(self) -> int:
        return len(self.models)


def _has_pairs(y: np.ndarray) -> bool:
    return np.unique(y).size > 1


def source_means(sources: SourceEnsemble, x: np.ndarray) -> np.ndarray:
    """The (n, K) matrix of source predictive means at the target inputs.

    Column k holds source k's mean at every row of ``x``; with no sources the
    matrix is (n, 0). The sources are fixed for a run, so one matrix per
    history serves phase 1 and every cross-validation fold of phase 2.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    means = [m.predict(x)[0] for m in sources.models]
    return np.column_stack(means) if means else np.empty((x.shape[0], 0))


def learn_source_weights(a: np.ndarray, y: np.ndarray) -> SimplexWeights:
    """Learn simplex weights over the K columns of the source-mean matrix
    ``a`` (see ``source_means``) on the target performances ``y``.

    One solve from the uniform point (see ``minimize_on_simplex``): a single
    source gets weight one, and a history without strict performance pairs
    (fewer than two observations, or all tied) gives the uniform vector.
    """
    k = a.shape[1]
    if k == 0:
        raise ValidationError("cannot learn source weights for an empty ensemble")
    return minimize_on_simplex(PredictionMatrix(a, y), SimplexWeights.uniform(k))


def _cv_folds(n: int, n_cv: int):
    """Deterministic round-robin folds as boolean masks ``(train, held)``:
    observation j is held out in fold j mod n_cv."""
    fold = np.arange(n) % n_cv
    for f in range(n_cv):
        held = fold == f
        yield ~held, held


def assemble_phase2_matrix(
    a: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    target_params: gp.KernelParams,
    n_cv: int,
) -> np.ndarray:
    """Build the cross-validated (n, 2) prediction matrix of phase 2.

    Row j holds the combined-source and the target predictive means at
    observation j, both from the partial models of j's own fold (see
    ``_cv_folds``). For each fold, source weights are re-learned from scratch
    on the training rows of the source-mean matrix ``a`` and applied to its
    held-out rows, and a partial target GP is conditioned on the training
    observations reusing the full-history kernel hyperparameters
    ``target_params``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n = y.size
    src_col = np.empty(n)
    tgt_col = np.empty(n)
    for train, held in _cv_folds(n, n_cv):
        w_fold = learn_source_weights(a[train], y[train])
        partial_target = gp.condition(x[train], gp.standardize(y[train]).z, target_params)
        src_col[held] = a[held] @ w_fold.values
        tgt_col[held] = partial_target.predict(x[held])[0]
    return np.column_stack([src_col, tgt_col])


def learn_phase2_weights(
    a: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    target_params: gp.KernelParams,
    n_cv: int = N_CV_DEFAULT,
) -> SimplexWeights:
    """Learn p = [p_source, p_target] by cross-validated ranking loss.

    ``a`` is the (n, K) source-mean matrix at the target inputs ``x`` (see
    ``source_means``). ``target_params`` are the kernel hyperparameters of
    the target GP fitted on the full history; each fold's partial target GP
    reuses them (see ``assemble_phase2_matrix``).

    Fallbacks: [0, 1] with no sources (only the target can carry weight),
    [1, 0] when the history is too small for cross-validation (fewer
    observations than folds, so some fold would be empty) or carries no
    strict performance pairs. A constant objective with pairs present
    resolves toward the target. Fewer than two folds is rejected.
    """
    if n_cv < 2:
        raise ValidationError("cross-validation needs at least 2 folds")
    if a.shape[1] == 0:
        return SimplexWeights([0.0, 1.0])
    y = np.asarray(y, dtype=float)
    if y.size < n_cv or not _has_pairs(y):
        return SimplexWeights([1.0, 0.0])
    matrix = assemble_phase2_matrix(a, x, y, target_params, n_cv)
    if np.allclose(matrix[:, 0], matrix[:, 1], rtol=0.0, atol=1e-12):
        return SimplexWeights([0.0, 1.0])
    pm = PredictionMatrix(matrix, y)
    p = minimize_on_simplex(pm, SimplexWeights.uniform(2))
    # Ties between the solver result and the pure-target vertex resolve
    # toward the target.
    target_vertex = SimplexWeights([0.0, 1.0])
    if ranking_loss(pm, target_vertex) <= ranking_loss(pm, p) + 1e-12:
        return target_vertex
    return p


def apply_nondecreasing_prior(p_now: SimplexWeights, p_prev_target: float) -> SimplexWeights:
    """Clamp the target weight from below by its previous value."""
    if p_now.dim != 2:
        raise ValidationError("p must live on the 2-simplex")
    if not 0.0 <= p_prev_target <= 1.0:
        raise ValidationError("previous target weight must lie in [0, 1]")
    p_target = max(float(p_now.values[1]), float(p_prev_target))
    return SimplexWeights([1.0 - p_target, p_target])


def combined_predict(models, weights: SimplexWeights, x):
    """Linear combination of GP posteriors: mean = sum w_b mu_b,
    variance = sum w_b^2 sigma_b^2.

    A weight of exactly one short-circuits to that member's prediction, so
    vertex weights reproduce the member model bitwise.
    """
    models = list(models)
    if len(models) == 0:
        raise ValidationError("combined prediction needs at least one model")
    if weights.dim != len(models):
        raise ValidationError("weight dimension must match the number of models")
    wv = weights.values
    active = np.nonzero(wv > 0.0)[0]
    if active.size == 1 and wv[active[0]] == 1.0:
        return models[active[0]].predict(x)
    mean = None
    var = None
    for i in active:
        m_i, v_i = models[i].predict(x)
        contrib_m = wv[i] * np.asarray(m_i, dtype=float)
        contrib_v = wv[i] ** 2 * np.asarray(v_i, dtype=float)
        mean = contrib_m if mean is None else mean + contrib_m
        var = contrib_v if var is None else var + contrib_v
    if mean is None:
        raise ValidationError("all weights are zero")
    if np.asarray(x).ndim == 1:
        return float(mean), float(var)
    return mean, var


def tl_predict(
    sources: SourceEnsemble,
    x,
    target: gp.GpSurrogate | None,
    w: SimplexWeights | None,
    p: SimplexWeights,
):
    """Transfer-surrogate prediction: one linear combination of the K source
    surrogates and the target surrogate with weights
    [p_source * w_1, ..., p_source * w_K, p_target] ([p_target] when K = 0).

    Vertex values of p pass the corresponding component through bitwise (see
    ``combined_predict``). Inconsistent inputs, such as ``p_source > 0``
    without sources or ``p_target > 0`` without a target, give weights off
    the simplex and are rejected.
    """
    source_w = np.zeros(0) if w is None else float(p.values[0]) * w.values
    if target is None:
        # Without a target only the sources carry weight; p_target > 0 is off the simplex.
        return combined_predict(sources.models, SimplexWeights(source_w), x)
    weights = SimplexWeights(np.append(source_w, float(p.values[1])))
    return combined_predict((*sources.models, target), weights, x)
