"""Gaussian-process surrogate with a Matern-5/2 ARD kernel.

Targets are standardized per task (zero mean, unit population variance)
before fitting. Kernel hyperparameters are chosen by multi-restart
maximization of the log marginal likelihood with analytic gradients;
the default hyperparameters are always kept as a candidate, so the fitted
likelihood can never fall below the default one. Prediction returns the
noise-free latent posterior (mean, variance).

The likelihood is the inner loop of every refit, so its inputs are laid out
for it once per fit (``_lml_args``). K is symmetric with kf_ii = sv, so an
evaluation works on the P = n(n - 1)/2 pairs i > j of its strict lower
triangle only: the squared input differences are stored packed and
dimension-major, (d, P), so that scaling and summing them runs over whole
(P,) vectors; the kernel values are scattered into the lower triangle of a
column-major K, whose diagonal is sv + nv, and gathered back from it. LAPACK
factors K (``dpotrf``), solves for alpha (``dpotrs``) and overwrites the
factor with K^-1's lower triangle (``dpotri``), all in place and without
scipy's finiteness checks. The gradient needs g = alpha alpha^T - K^-1 only
on the pairs and the diagonal. An evaluation makes its own arrays and writes
into none of its arguments.

The implementation is held to the same packed formula written plainly, bit
for bit at every d, as every operation keeps that formula's grouping and
every sum its order (``oracles.lml_mismatch``), and to the dense formula over
the whole (n, n) matrix within a rounding bound (``oracles.dense_lml_mismatch``).

Each start of the search runs L-BFGS-B through its own short loop over
scipy's private reverse-communication routine ``setulb``, since the wrappers
and copies of ``scipy.optimize.minimize`` cost tens of microseconds per
likelihood evaluation. The loop keeps everything of ``minimize`` that changes
a result (see ``_lbfgsb_minimize``), and ``oracles.check_lbfgsb_vs_minimize``
(run by ``tlbo selftest``) and a property test hold it to the public
``minimize`` bit for bit, so a scipy release that changes ``setulb`` fails
them rather than silently moving the fits.

``_scipy_extension`` executes each compiled scipy file the library calls,
``optimize/_lbfgsb`` (``setulb``), ``linalg/_flapack`` (LAPACK, here and in
the simplex solver) and ``special/_special_ufuncs`` (``ndtr``), from the
file itself, so ``import tlbo`` runs no scipy ``__init__`` and loads no
scipy module. If a scipy release moves one of the files, ``import tlbo``
fails with an ImportError naming the directory searched.

The kernel and the predictive variance are built in place, in the order of
the straightforward formulas, so they too keep every bit. ``predict`` scores
its m query rows in blocks of ``_predict_rows(n)``, a multiple of 128 rows
near ``_PREDICT_BLOCK // n``, so its arrays stay in cache at any m. The last
block takes the rest, and a 1-row rest joins the block before it: BLAS takes
the rows of ``ks @ alpha`` in groups of 4 and the rest by another path, and
one row by a third, so these blocks keep every bit of one product and one
solve over all m rows, where a balanced split does not (see
``oracles.check_predict_blocks``; from n ~ 190, this build's kernel product
computes a block's last rows another way, so a property test stops at 180).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

from .errors import FitError, ValidationError


def _scipy_extension(subpackage: str, name: str):
    """scipy's compiled module ``name``, executed from its file in scipy's
    ``subpackage`` directory without importing scipy or the subpackage."""
    where = str(Path(find_spec("scipy").origin).parent / subpackage)
    spec = PathFinder.find_spec(name, [where])
    if spec is None:
        raise ImportError(f"scipy's extension {name} not found in {where}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_lbfgsb = _scipy_extension("optimize", "_lbfgsb")
_flapack = _scipy_extension("linalg", "_flapack")

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

# Elements of the cross-kernel per block of query rows in predict: 128 KB,
# so that its element-wise steps and the triangular solve stay in cache.
_PREDICT_BLOCK = 16384

# The settings of scipy.optimize.minimize(method="L-BFGS-B"): corrections
# kept, factr = ftol / eps, the projected-gradient tolerance, line-search
# steps per iteration, and the iteration and evaluation caps.
_LBFGSB_M = 10
_LBFGSB_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 15000
_LBFGSB_MAXFUN = 15000


def standardize(y) -> np.ndarray:
    """z = (y - mean) / std: zero mean and unit population variance.

    Degenerate inputs (a single value, or all values equal) return all-zero z.
    """
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("standardize expects a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("standardize expects finite values")
    std = 0.0 if np.all(arr == arr[0]) else float(arr.std())
    if std == 0.0:
        return np.zeros_like(arr)
    return (arr - float(arr.mean())) / std


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
    """Matern-5/2 cross-kernel matrix, without the noise term.

    The value is sv * (1 + sqrt5 r + 5/3 d2) * exp(-sqrt5 r), taken in that
    order, one operation at a time, in the cross product's memory, which
    becomes the result; ``predict`` keeps it in cache by passing blocks of
    rows.
    """
    scaled1 = x1 / params.lengthscales
    scaled2 = x2 / params.lengthscales
    k = 2.0 * scaled1 @ scaled2.T
    np.subtract((scaled1**2).sum(axis=1)[:, None], k, out=k)
    k += (scaled2**2).sum(axis=1)[None, :]
    np.maximum(k, 0.0, out=k)  # d2
    sqrt5_r = np.sqrt(k)
    sqrt5_r *= SQRT5
    k *= 5.0 / 3.0
    k += sqrt5_r + 1.0
    k *= params.signal_variance
    # exp(-sqrt5 r): negation is exact, so this is exp(-SQRT5 * r) bit for bit.
    np.negative(sqrt5_r, out=sqrt5_r)
    k *= np.exp(sqrt5_r, out=sqrt5_r)
    return k


def _lml_args(x: np.ndarray, z: np.ndarray):
    """The fixed arguments of ``_neg_lml_and_grad`` for inputs ``x`` (n, d)
    and targets ``z``: the squared input differences of the pairs i > j,
    C-ordered (d, P) in ``np.tril_indices(n, -1)`` order, ``z``, and the
    pairs' rows and columns and their positions in a column-major K."""
    n = x.shape[0]
    rows, cols = np.tril_indices(n, -1)
    # C-ordered: a sum over d and the gradient's product keep their bits only
    # in one layout, the one the reference formula gets too.
    return np.ascontiguousarray((x[rows] - x[cols]).T ** 2), z, rows, cols, rows + n * cols


def _neg_lml_and_grad(theta: np.ndarray, sq_diffs: np.ndarray, z: np.ndarray, rows, cols, pos):
    """Negative log marginal likelihood and its gradient in log-parameters.
    The arguments after ``theta`` are ``_lml_args(x, z)``; none is written."""
    dim, n = sq_diffs.shape[0], z.size
    ls = np.exp(theta[:dim])
    sv = float(np.exp(theta[dim]))
    nv = float(np.exp(theta[dim + 1]))

    # Each step keeps the reference's operations and their grouping; as
    # IEEE + and * are commutative, an in-place ``a op= b`` has the bits of
    # ``b op a``.
    scaled = sq_diffs / (ls**2)[:, None]
    d2 = scaled.sum(axis=0)
    sqrt5_r = np.sqrt(d2)
    sqrt5_r *= SQRT5
    decay = np.exp(-sqrt5_r)
    linear = sqrt5_r + 1.0
    kf = d2  # sv * (linear + (5/3) d2) * decay, in d2's memory
    kf *= 5.0 / 3.0
    kf += linear
    kf *= sv
    kf *= decay
    # Column-major, so that LAPACK works in place; only the lower triangle is
    # read: kf off the diagonal, and sv + nv on it, as kf_ii = sv exactly.
    kn = np.zeros((n, n), order="F")
    kn_flat = kn.T.reshape(-1)
    kn_flat[pos] = kf
    kn_flat[:: n + 1] = sv + nv
    chol, info = _flapack.dpotrf(kn, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return _BAD_OBJECTIVE, np.zeros(dim + 2)
    alpha, _ = _flapack.dpotrs(chol, z, lower=1)
    lml = -0.5 * float(z @ alpha) - float(np.log(chol.diagonal()).sum()) - 0.5 * n * math.log(2.0 * math.pi)
    _, info = _flapack.dpotri(chol, lower=1, overwrite_c=1)  # K^-1's lower triangle, in kn
    if info != 0:
        return _BAD_OBJECTIVE, np.zeros(dim + 2)

    # The negated gradient of 1/2 sum_ij g_ij dK_ij, g = alpha alpha^T - K^-1:
    # each pair stands for (i, j) and (j, i), whose 2 cancels the 1/2; a pair
    # adds g_ij (5/3) sv (1 + sqrt5 r) exp(-sqrt5 r) scaled_d to length-scale
    # d, and the diagonal adds sv g_ii to the signal and nv g_ii to the noise.
    g = alpha[rows]
    g *= alpha[cols]
    g -= kn_flat[pos]
    weighted = linear
    weighted *= (5.0 / 3.0) * sv
    weighted *= decay
    weighted *= g
    diag_sum = float((alpha * alpha - kn_flat[:: n + 1]).sum())
    grad = np.empty(dim + 2)
    np.negative(scaled @ weighted, out=grad[:dim])
    grad[dim] = -0.5 * (2.0 * float(kf @ g) + sv * diag_sum)
    grad[dim + 1] = -0.5 * nv * diag_sum
    return -lml, grad


class GpSurrogate:
    """A fitted GP with cached Cholesky factorization for fast prediction.

    ``fit_nfev`` is the number of likelihood evaluations L-BFGS-B spent
    choosing ``params``, summed over the starts; 0 when none ran.
    ``fit_start`` is the index of the start whose result ``fit`` kept (0 for
    the defaults start, then 1..``N_RESTARTS``); ``None`` when none beat the
    default parameters strictly, or no search ran. ``fit_jitter`` is the
    diagonal jitter, on top of the noise variance, that the Cholesky of the
    training kernel matrix needed: the first level of ``JITTERS`` it
    succeeded at.
    """

    def __init__(
        self,
        train_inputs,
        train_targets,
        params: KernelParams,
        fit_nfev: int = 0,
        fit_start: int | None = None,
    ):
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
        self.fit_start = fit_start
        self._chol, self._alpha, self.fit_jitter = _factorize(x, z, params)

    @property
    def input_dim(self) -> int:
        return self.train_inputs.shape[1]

    def predict(self, x):
        """Latent posterior (mean, variance) at the (m, d) query rows ``x``,
        as two (m,) arrays.

        Variance is floored at a small positive constant. Queries that are
        not 2-D, do not match the input dimension or are not finite are
        rejected.
        """
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 2:
            raise ValidationError(f"queries must be a 2-D (m, d) array, not {arr.ndim}-D")
        if arr.shape[1] != self.input_dim:
            raise ValidationError(
                f"query dimension {arr.shape[1]} does not match surrogate dimension {self.input_dim}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("query points must be finite")
        m = arr.shape[0]
        mean, var = np.empty(m), np.empty(m)
        # No block starts at m - 1: a 1-row rest joins the block before it.
        edges = [*range(0, max(m - 1, 1), _predict_rows(self.train_inputs.shape[0])), m]
        for lo, hi in zip(edges[:-1], edges[1:]):
            ks = _matern52(arr[lo:hi], self.train_inputs, self.params)
            mean[lo:hi] = ks @ self._alpha
            # v = L^-1 ks^T, as solve_triangular computes it: LAPACK gets L^T
            # (the F-ordered view of the C-ordered L) with trans set, and
            # solves in place in ks's memory through its F-ordered view.
            v, _ = _flapack.dtrtrs(self._chol.T, ks.T, lower=0, trans=1, overwrite_b=1)
            explained = np.square(v, out=v).sum(axis=0)
            del ks, v  # frees this block's (rows, n) kernel before the next one's is built
            var[lo:hi] = np.maximum(self.params.signal_variance - explained, VARIANCE_FLOOR)
        return mean, var


def _predict_rows(n: int) -> int:
    """Query rows per block of ``predict`` at n training rows."""
    return 128 * max(1, _PREDICT_BLOCK // (128 * n))


def _factorize(x: np.ndarray, z: np.ndarray, params: KernelParams):
    """Cholesky of the noisy kernel matrix, escalating jitter on failure;
    returns (chol, alpha, jitter)."""
    kf = _matern52(x, x, params)
    eye = np.eye(x.shape[0])
    for jitter in JITTERS:
        try:
            chol = np.linalg.cholesky(kf + (params.noise_variance + jitter) * eye)
        except np.linalg.LinAlgError:
            continue
        alpha, info = _flapack.dpotrs(chol, z, lower=1)
        if info != 0:
            raise FitError(f"dpotrs rejected argument {-info}")
        return chol, alpha, jitter
    raise FitError("kernel matrix is not positive definite even after jitter escalation")


def _log_bounds(dim: int):
    """Lower and upper bounds of the log-parameters ``fit`` searches."""
    bounds = [LENGTHSCALE_BOUNDS] * dim + [SIGNAL_BOUNDS, NOISE_BOUNDS]
    return np.array([math.log(lo) for lo, _ in bounds]), np.array([math.log(hi) for _, hi in bounds])


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
    lows, highs = _log_bounds(dim)
    rng = np.random.default_rng(seed)
    starts = [defaults.to_log_vector()]
    for _ in range(N_RESTARTS):
        starts.append(rng.uniform(lows, highs))

    # The raw default parameters are always a candidate; their value is the
    # first start's initial evaluation. A start's result replaces the best
    # one only when it is strictly lower.
    best_theta, start = starts[0], None
    nfev = 0
    for i, theta0 in enumerate(starts):
        theta, obj, n_eval, obj0 = _lbfgsb_minimize(_neg_lml_and_grad, theta0, args, lows, highs)
        nfev += n_eval
        if i == 0:
            best_obj = obj0
        if np.all(np.isfinite(theta)) and obj < best_obj:
            best_obj, best_theta, start = obj, theta, i

    return GpSurrogate(
        x, z, KernelParams.from_log_vector(best_theta, dim), fit_nfev=nfev, fit_start=start
    )


def _lbfgsb_minimize(fun, x0, args, lows, highs):
    """Minimize ``fun(x, *args) -> (value, gradient)`` over the box
    [``lows``, ``highs``] from ``x0`` with L-BFGS-B, as
    ``scipy.optimize.minimize(fun, x0, args, method="L-BFGS-B", jac=True,
    bounds=...)`` does, bit for bit. Returns the final point, its value, the
    number of distinct evaluations, and the value at the (clipped) start."""
    n = x0.size
    m = _LBFGSB_M
    x = np.clip(x0, lows, highs)
    nbd = np.full(n, 2, dtype=np.int32)  # every variable bounded on both sides
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)

    # minimize evaluates the start first and keeps the last point it
    # evaluated, with its value and gradient, for a repeated request.
    x_eval = x.copy()
    f_eval, g_eval = fun(x_eval, *args)
    f0, nfev, n_iter = f_eval, 1, 0
    while True:
        # setulb may write into g, so g is its own buffer: an FG request
        # copies the kept gradient into it, and a NEW_X pass hands it back
        # as setulb left it, as minimize's copy of its g on every pass does.
        _lbfgsb.setulb(
            m, x, lows, highs, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
            wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == 3:  # FG: wants the value and gradient at x
            if not (x == x_eval).all():
                x_eval = x.copy()
                f_eval, g_eval = fun(x_eval, *args)
                nfev += 1
            f = f_eval
            np.copyto(g, g_eval)
        elif task[0] == 1:  # NEW_X: an iteration ended
            n_iter += 1
            if n_iter >= _LBFGSB_MAXITER:
                task[0], task[1] = 5, 504
            elif nfev > _LBFGSB_MAXFUN:
                task[0], task[1] = 5, 502
        else:
            break
    return x, f, nfev, f0


def condition(x, z, params: KernelParams) -> GpSurrogate:
    """Build a surrogate with fixed hyperparameters (no likelihood search)."""
    return GpSurrogate(x, z, params)
