"""Two-phase surrogate transfer: source-weight learning, cross-validated
source/target balancing, and linearly combined Gaussian prediction.

Phase 1 learns simplex weights w over the source surrogates by minimizing
the pairwise ranking loss of their combined mean on the target history.
Phase 2 balances the combined source surrogate against the target surrogate
with a two-dimensional weight p = [p_source, p_target], learned on held-out
ranking loss via deterministic round-robin cross-validation (``bo`` keeps
the target weight from decreasing across iterations). Both phases see the
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

    def __post_init__(self):
        models = tuple(self.models)
        dims = {m.input_dim for m in models}
        if len(dims) > 1:
            raise ValidationError("all source surrogates must share one input dimension")
        object.__setattr__(self, "models", models)


def source_means(sources: SourceEnsemble, x: np.ndarray) -> np.ndarray:
    """The (n, K) matrix of source predictive means at the target inputs.

    Column k holds source k's mean at every row of ``x``; with no sources the
    matrix is (n, 0). The sources are fixed for a run, so one matrix per
    history serves phase 1 and every cross-validation fold of phase 2.

    A row's bits depend on how many rows are predicted with it: BLAS blocks
    the products of ``GpSurrogate.predict`` by the row count. So the matrix
    of a history is not, bit for bit, the one of its first n - 1 rows with a
    row appended; growing it row by row would move the weights in the last
    bits.
    """
    means = [m.predict(x)[0] for m in sources.models]
    return np.column_stack(means) if means else np.empty((x.shape[0], 0))


def learn_source_weights(a: np.ndarray, y: np.ndarray) -> SimplexWeights:
    """Learn simplex weights over the K columns of the source-mean matrix
    ``a`` (see ``source_means``) on the target performances ``y``.

    One solve from the uniform point (see ``minimize_on_simplex``): a single
    source gets weight one, and a history without strict performance pairs
    (fewer than two observations, or all tied) gives the uniform vector.
    """
    if a.shape[1] == 0:
        raise ValidationError("cannot learn source weights for an empty ensemble")
    return minimize_on_simplex(PredictionMatrix(a, y))


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
    n = y.size
    src_col = np.empty(n)
    tgt_col = np.empty(n)
    for train, held in _cv_folds(n, n_cv):
        w_fold = learn_source_weights(a[train], y[train])
        partial_target = gp.condition(x[train], gp.standardize(y[train]), target_params)
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
    strict performance pairs. Otherwise the pure-target vertex [0, 1] wins
    any tie within 1e-12 of the solver's loss, so a constant objective with
    pairs present (equal cross-validated columns) resolves to the target.
    Fewer than two folds is rejected.
    """
    if n_cv < 2:
        raise ValidationError("cross-validation needs at least 2 folds")
    if a.shape[1] == 0:
        return SimplexWeights([0.0, 1.0])
    if y.size < n_cv or (y == y[0]).all():  # not np.unique, which imports numpy.ma
        return SimplexWeights([1.0, 0.0])
    pm = PredictionMatrix(assemble_phase2_matrix(a, x, y, target_params, n_cv), y)
    p = minimize_on_simplex(pm)
    target_vertex = SimplexWeights([0.0, 1.0])
    if ranking_loss(pm, target_vertex) <= ranking_loss(pm, p) + 1e-12:
        return target_vertex
    return p


def tl_predict(
    sources: SourceEnsemble,
    x,
    target: gp.GpSurrogate,
    w: SimplexWeights | None,
    p: SimplexWeights,
):
    """Transfer-surrogate prediction at the (m, d) query rows ``x``: one
    linear combination of the K source surrogates and the target surrogate
    with weights [p_source * w_1, ..., p_source * w_K, p_target]
    ([p_target] when K = 0).

    mean = sum b_i mu_i, variance = sum b_i^2 sigma_i^2 over the members of
    positive weight b_i, as (m,) arrays. A weight of one passes its member
    through bitwise, since 0.0 + 1.0 * mu and 0.0 + 1.0**2 * sigma^2 are exact.
    Inconsistent inputs, such as ``p_source > 0`` without sources, give
    weights off the simplex and are rejected.
    """
    source_w = np.zeros(0) if w is None else float(p.values[0]) * w.values
    weights = SimplexWeights(np.append(source_w, float(p.values[1]))).values
    members = (*sources.models, target)
    if weights.size != len(members):
        raise ValidationError("weight dimension must match the number of models")
    # A SimplexWeights always has a positive entry, so the sums are arrays.
    mean = var = 0.0
    for weight, member in zip(weights, members):
        if weight > 0.0:
            m, v = member.predict(x)
            mean = mean + weight * m
            var = var + weight**2 * v
    return mean, var
