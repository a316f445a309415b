"""Gaussian-process surrogate with a Matern-5/2 ARD kernel.

Targets are standardized per task (zero mean, unit population variance)
before fitting. Kernel hyperparameters are chosen by multi-restart
maximization of the log marginal likelihood with analytic gradients;
the default hyperparameters are always kept as a candidate, so the fitted
likelihood can never fall below the default one. Prediction returns the
noise-free latent posterior (mean, variance).

The likelihood is the inner loop of every refit, so its inputs are laid out
for it once per fit (``_lml_args``): the squared input differences are
stored dimension-major, (d, n, n), so that scaling and summing them runs
over whole (n, n) planes, and the identity is built once. The Cholesky
factor and solves call LAPACK's ``dpotrf``/``dpotrs`` directly, without
scipy's finiteness checks. Every sum keeps the order of the straightforward
formula, ``oracles.reference_neg_lml_and_grad``, so the value and gradient
are bitwise equal to it; the tests hold them to that at d = 2 and 4, the
encoded dimensions of the benchmarks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize

from .errors import FitError, ValidationError

SQRT5 = math.sqrt(5.0)
VARIANCE_FLOOR = 1e-12
NOISE_FLOOR = 1e-8

# Bounds for hyperparameter search, in natural units.
LENGTHSCALE_BOUNDS = (1e-2, 1e2)
SIGNAL_BOUNDS = (1e-3, 1e3)
NOISE_BOUNDS = (NOISE_FLOOR, 1.0)

# Ladder of diagonal boosts tried when the kernel matrix fails to factorize.
JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

MIN_FIT_POINTS = 2  # below this, hyperparameters stay at defaults
N_RESTARTS = 4

_BAD_OBJECTIVE = 1e25


@dataclass(frozen=True)
class StandardizedTargets:
    """Standardized performances: z = (y - mean) / std."""

    z: np.ndarray
    mean: float
    std: float


def standardize(y) -> StandardizedTargets:
    """Remove the mean and scale to unit population variance.

    Degenerate inputs (a single value, or all values equal) keep std fixed
    at 1 and return all-zero z.
    """
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("standardize expects a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("standardize expects finite values")
    mean = float(arr.mean())
    if arr.size == 1 or np.all(arr == arr[0]):
        return StandardizedTargets(z=np.zeros_like(arr), mean=mean, std=1.0)
    std = float(arr.std())
    if std == 0.0:
        return StandardizedTargets(z=np.zeros_like(arr), mean=mean, std=1.0)
    return StandardizedTargets(z=(arr - mean) / std, mean=mean, std=std)


@dataclass(frozen=True)
class KernelParams:
    """ARD length-scales plus signal and noise variances."""

    lengthscales: np.ndarray
    signal_variance: float
    noise_variance: float

    def __post_init__(self):
        ls = np.asarray(self.lengthscales, dtype=float)
        if ls.ndim != 1 or ls.size == 0 or np.any(ls <= 0):
            raise ValidationError("length-scales must be a 1-D positive array")
        if self.signal_variance <= 0:
            raise ValidationError("signal variance must be positive")
        if self.noise_variance < NOISE_FLOOR:
            raise ValidationError(f"noise variance must be at least {NOISE_FLOOR}")
        object.__setattr__(self, "lengthscales", ls)

    @classmethod
    def defaults(cls, dim: int) -> "KernelParams":
        return cls(lengthscales=np.ones(dim), signal_variance=1.0, noise_variance=1e-6)

    def to_log_vector(self) -> np.ndarray:
        return np.concatenate(
            [np.log(self.lengthscales), [math.log(self.signal_variance), math.log(self.noise_variance)]]
        )

    @classmethod
    def from_log_vector(cls, theta: np.ndarray, dim: int) -> "KernelParams":
        theta = np.asarray(theta, dtype=float)
        return cls(
            lengthscales=np.exp(theta[:dim]),
            signal_variance=float(np.exp(theta[dim])),
            noise_variance=max(float(np.exp(theta[dim + 1])), NOISE_FLOOR),
        )


def _matern52(x1: np.ndarray, x2: np.ndarray, params: KernelParams) -> np.ndarray:
    """Matern-5/2 cross-kernel matrix, without the noise term."""
    scaled1 = x1 / params.lengthscales
    scaled2 = x2 / params.lengthscales
    d2 = np.maximum(
        (scaled1**2).sum(axis=1)[:, None]
        - 2.0 * scaled1 @ scaled2.T
        + (scaled2**2).sum(axis=1)[None, :],
        0.0,
    )
    r = np.sqrt(d2)
    return params.signal_variance * (1.0 + SQRT5 * r + (5.0 / 3.0) * d2) * np.exp(-SQRT5 * r)


def _lml_args(x: np.ndarray, z: np.ndarray):
    """The fixed arguments of ``_neg_lml_and_grad`` for inputs ``x`` (n, d)
    and targets ``z``: the squared input differences per dimension, (d, n, n),
    then ``z`` and the (n, n) identity."""
    xt = np.ascontiguousarray(x.T)
    return (xt[:, :, None] - xt[:, None, :]) ** 2, z, np.eye(x.shape[0])


def _neg_lml_and_grad(theta: np.ndarray, sq_diffs: np.ndarray, z: np.ndarray, eye: np.ndarray):
    """Negative log marginal likelihood and its gradient in log-parameters.

    ``sq_diffs``, ``z`` and ``eye`` are ``_lml_args(x, z)``.
    """
    dim, n, _ = sq_diffs.shape
    ls = np.exp(theta[:dim])
    sv = float(np.exp(theta[dim]))
    nv = float(np.exp(theta[dim + 1]))

    # Each sum adds its terms in the reference's order. Fewer than 8 terms
    # along the reference's last axis are added one by one, as the planes are
    # here; from 8 on, numpy adds them pairwise, so that sum is taken in the
    # reference's (n, n, d) layout.
    scaled = sq_diffs / (ls**2)[:, None, None]
    if dim < 8:
        d2 = np.add.reduce(scaled, axis=0)
    else:
        d2 = np.ascontiguousarray(np.moveaxis(scaled, 0, -1)).sum(axis=2)
    sqrt5_r = SQRT5 * np.sqrt(d2)
    decay = np.exp(-sqrt5_r)
    linear = 1.0 + sqrt5_r
    kf = sv * (linear + (5.0 / 3.0) * d2) * decay
    # kn is symmetric and new, so LAPACK may factor its F-ordered view in place.
    kn = kf + nv * eye
    chol, info = dpotrf(kn.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return _BAD_OBJECTIVE, np.zeros(dim + 2)

    alpha, _ = dpotrs(chol, z, lower=1)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.log(np.diag(chol)).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    kinv, _ = dpotrs(chol, eye, lower=1)
    gmat = np.outer(alpha, alpha) - kinv

    # d k / d log(ls_d) = (5/3) * sv * (1 + sqrt5 r) * exp(-sqrt5 r) * scaled_d
    base = (5.0 / 3.0) * sv * linear * decay
    weighted = gmat * base
    if dim == 1:
        # The reference's einsum adds all n * n terms vectorized here...
        grad_ls = 0.5 * np.einsum("ij,dij->d", weighted, scaled)
    else:
        # ...and each dimension's terms one by one in (i, j) order here,
        # which einsum repeats only for terms laid out (n, n, d).
        terms = np.empty((n, n, dim))
        np.multiply(weighted, scaled, out=np.moveaxis(terms, -1, 0))
        grad_ls = 0.5 * np.einsum("ijd->d", terms)
    grad_sv = 0.5 * float((gmat * kf).sum())
    grad_nv = 0.5 * float(np.trace(gmat)) * nv
    grad = np.concatenate([grad_ls, [grad_sv, grad_nv]])
    return -lml, -grad


class GpSurrogate:
    """A fitted GP with cached Cholesky factorization for fast prediction.

    ``fit_nfev`` is the number of likelihood evaluations L-BFGS-B spent
    choosing ``params``, summed over the starts; 0 when none ran.
    """

    def __init__(self, train_inputs, train_targets, params: KernelParams, fit_nfev: int = 0):
        x = np.atleast_2d(np.asarray(train_inputs, dtype=float))
        z = np.asarray(train_targets, dtype=float)
        if x.shape[0] != z.shape[0] or z.ndim != 1 or x.shape[0] == 0:
            raise ValidationError("training inputs and targets must align and be non-empty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise ValidationError("training data must be finite")
        if x.shape[1] != params.lengthscales.size:
            raise ValidationError("kernel length-scales do not match the input dimension")
        self.train_inputs = x
        self.train_targets = z
        self.params = params
        self.fit_nfev = fit_nfev
        self._chol, self._alpha = _factorize(x, z, params)

    @property
    def input_dim(self) -> int:
        return self.train_inputs.shape[1]

    def predict(self, x):
        """Latent posterior (mean, variance) at one point or a batch.

        A 1-D input returns scalars; a 2-D (m, d) input returns (m,) arrays.
        Variance is floored at a small positive constant.
        """
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        arr = np.atleast_2d(arr)
        if arr.shape[1] != self.input_dim:
            raise ValidationError(
                f"query dimension {arr.shape[1]} does not match surrogate dimension {self.input_dim}"
            )
        ks = _matern52(arr, self.train_inputs, self.params)
        mean = ks @ self._alpha
        v = solve_triangular(self._chol, ks.T, lower=True)
        var = np.maximum(self.params.signal_variance - (v**2).sum(axis=0), VARIANCE_FLOOR)
        if single:
            return float(mean[0]), float(var[0])
        return mean, var


def _factorize(x: np.ndarray, z: np.ndarray, params: KernelParams):
    """Cholesky of the noisy kernel matrix, escalating jitter on failure."""
    kf = _matern52(x, x, params)
    eye = np.eye(x.shape[0])
    for jitter in JITTERS:
        try:
            chol = np.linalg.cholesky(kf + (params.noise_variance + jitter) * eye)
        except np.linalg.LinAlgError:
            continue
        alpha = cho_solve((chol, True), z)
        return chol, alpha
    raise FitError("kernel matrix is not positive definite even after jitter escalation")


def fit(x, z, seed: int = 0) -> GpSurrogate:
    """Fit a GP by multi-restart maximization of the marginal likelihood.

    With fewer than two observations the likelihood is uninformative and the
    default hyperparameters are kept. Deterministic for a fixed seed.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.asarray(z, dtype=float)
    if x.shape[0] != z.shape[0] or x.shape[0] == 0:
        raise ValidationError("fit expects aligned, non-empty inputs and targets")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValidationError("fit expects finite inputs and targets")

    dim = x.shape[1]
    defaults = KernelParams.defaults(dim)
    if x.shape[0] < MIN_FIT_POINTS:
        return GpSurrogate(x, z, defaults)

    args = _lml_args(x, z)
    log_bounds = (
        [(math.log(LENGTHSCALE_BOUNDS[0]), math.log(LENGTHSCALE_BOUNDS[1]))] * dim
        + [(math.log(SIGNAL_BOUNDS[0]), math.log(SIGNAL_BOUNDS[1]))]
        + [(math.log(NOISE_BOUNDS[0]), math.log(NOISE_BOUNDS[1]))]
    )
    lows = np.array([b[0] for b in log_bounds])
    highs = np.array([b[1] for b in log_bounds])

    rng = np.random.default_rng(seed)
    starts = [defaults.to_log_vector()]
    for _ in range(N_RESTARTS):
        starts.append(rng.uniform(lows, highs))

    # The raw default parameters are always a candidate.
    best_theta = defaults.to_log_vector()
    best_obj, _ = _neg_lml_and_grad(best_theta, *args)
    nfev = 0
    for theta0 in starts:
        res = minimize(
            _neg_lml_and_grad,
            theta0,
            args=args,
            jac=True,
            method="L-BFGS-B",
            bounds=log_bounds,
        )
        nfev += res.nfev
        if np.all(np.isfinite(res.x)) and res.fun < best_obj:
            best_obj = res.fun
            best_theta = res.x

    return GpSurrogate(x, z, KernelParams.from_log_vector(best_theta, dim), fit_nfev=nfev)


def condition(x, z, params: KernelParams) -> GpSurrogate:
    """Build a surrogate with fixed hyperparameters (no likelihood search)."""
    return GpSurrogate(x, z, params)
