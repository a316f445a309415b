"""Pairwise ranking loss, its analytic gradient, and a simplex minimizer.

The loss compares model predictions against observed performance order: for
every observation pair (j, k) with y_j < y_k it adds log(1 + exp(-(s_k -
s_j))) where s = A w, normalized by 1/n^2. It is convex in w, so projected
gradient descent from a single start (the uniform point) reaches the global
optimum on the probability simplex without external solver dependencies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SolverError, ValidationError

PG_TOL = 1e-6
# Tied or rounded predictions make the problem ill-conditioned; such solves
# have been seen to need over 2000 iterations to reach PG_TOL.
MAX_ITER = 10000
ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class PredictionMatrix:
    """Predictive means of K models at n observed configurations.

    ``a`` has one row per observation and one column per model; ``y`` holds
    the observed performances aligned to rows.
    """

    a: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if a.shape[0] != y.shape[0]:
            raise ValidationError("prediction matrix rows must match the number of observations")
        if a.size and not np.all(np.isfinite(a)):
            raise ValidationError("prediction matrix entries must be finite")
        if y.size and not np.all(np.isfinite(y)):
            raise ValidationError("observed performances must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (j, k) with y_j strictly below y_k."""
        j_idx, k_idx = np.nonzero(self.y[:, None] < self.y[None, :])
        return j_idx, k_idx

    @cached_property
    def pair_diffs(self) -> np.ndarray:
        """Rows A[j] - A[k] per pair; the loss and gradient need only these."""
        j_idx, k_idx = self.pairs
        return self.a[j_idx] - self.a[k_idx]


class SimplexWeights:
    """A nonnegative weight vector summing to one."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("weights must form a non-empty 1-D vector")
        if arr.min() < -1e-9:
            raise ValidationError(f"weights must be nonnegative, got min {arr.min()}")
        arr = np.clip(arr, 0.0, None)
        if abs(arr.sum() - 1.0) > 1e-8:
            raise ValidationError(f"weights must sum to 1, got {arr.sum()}")
        self.values = arr

    @property
    def dim(self) -> int:
        return self.values.size

    @classmethod
    def uniform(cls, dim: int) -> "SimplexWeights":
        if dim < 1:
            raise ValidationError("weight dimension must be at least 1")
        return cls(np.full(dim, 1.0 / dim))

    @classmethod
    def vertex(cls, dim: int, index: int) -> "SimplexWeights":
        if not 0 <= index < dim:
            raise ValidationError("vertex index out of range")
        v = np.zeros(dim)
        v[index] = 1.0
        return cls(v)

    def __len__(self):
        return self.values.size

    def __repr__(self):
        return f"SimplexWeights({np.array2string(self.values, precision=4)})"


def _check_dims(pm: PredictionMatrix, w: SimplexWeights) -> None:
    if w.dim != pm.k:
        raise ValidationError(f"weight dimension {w.dim} does not match {pm.k} model columns")


def _loss_raw(pm: PredictionMatrix, w: np.ndarray) -> float:
    # With u = (A[j] - A[k]) w, the pair score gap is z = -u and the pair
    # penalty log(1 + exp(-z)) becomes softplus(u).
    u = pm.pair_diffs @ w
    phi = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    return float(phi.sum()) / pm.n**2


def _loss_and_grad_raw(pm: PredictionMatrix, w: np.ndarray):
    u = pm.pair_diffs @ w
    au = np.abs(u)
    phi = np.maximum(u, 0.0) + np.log1p(np.exp(-au))
    # sigma(u) without overflow on either tail
    e = np.exp(-au)
    coef = np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    n2 = pm.n**2
    return float(phi.sum()) / n2, (coef @ pm.pair_diffs) / n2


def ranking_loss(pm: PredictionMatrix, w: SimplexWeights) -> float:
    """Pairwise logistic loss of the combined prediction A w, scaled by 1/n^2.

    Numerically stable for score gaps far beyond 1e3 in magnitude.
    """
    _check_dims(pm, w)
    if pm.pairs[0].size == 0:
        return 0.0
    return _loss_raw(pm, w.values)


def ranking_loss_grad(pm: PredictionMatrix, w: SimplexWeights) -> np.ndarray:
    """Exact gradient of :func:`ranking_loss` with respect to the weights."""
    _check_dims(pm, w)
    if pm.pairs[0].size == 0:
        return np.zeros(pm.k)
    return _loss_and_grad_raw(pm, w.values)[1]


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _pgd(pm: PredictionMatrix, x0: np.ndarray):
    """Projected gradient descent with Armijo backtracking from one start."""
    x = project_to_simplex(x0)
    f, g = _loss_and_grad_raw(pm, x)
    step = 1.0
    for _ in range(MAX_ITER):
        if not (np.isfinite(f) and np.all(np.isfinite(g))):
            raise SolverError("non-finite loss or gradient during simplex descent", last_iterate=x)
        if np.linalg.norm(x - project_to_simplex(x - g)) <= PG_TOL:
            break
        step = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            x_new = project_to_simplex(x - step * g)
            delta = x_new - x
            f_new = _loss_raw(pm, x_new)
            if f_new <= f + ARMIJO_C * float(g @ delta):
                accepted = True
                break
            step *= 0.5
        if not accepted or np.linalg.norm(x_new - x) < 1e-14:
            break
        x = x_new
        f, g = _loss_and_grad_raw(pm, x)
    return x


def minimize_on_simplex(pm: PredictionMatrix) -> SimplexWeights:
    """Minimize the ranking loss over the probability simplex.

    The loss is convex, so one projected-gradient descent from the uniform
    point suffices; a constant objective leaves it there, and an objective
    without strict pairs returns it. A single column gets weight one.
    """
    uniform = SimplexWeights.uniform(pm.k)
    if pm.k == 1 or pm.pairs[0].size == 0:
        return uniform
    return SimplexWeights(project_to_simplex(_pgd(pm, uniform.values)))
