"""Oracle checks: closed forms of the library against independent numerics.

Every check is a no-argument function that raises ``AssertionError`` on a
mismatch. ``CHECKS`` lists them under the names ``tlbo selftest`` prints; the
acceptance suite calls the same functions, so both check the same fixed
instances. The reference helpers are reused by the unit tests.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.optimize import minimize

from . import bench, bo, gp, space as space_mod, transfer
from .ranking import (
    PredictionMatrix,
    SimplexWeights,
    minimize_on_simplex,
    project_to_simplex,
    ranking_loss,
    ranking_loss_grad,
)


# KKT tolerance on the gradient. The solver stops once its projected-gradient
# step is at most PG_TOL (1e-6); on the support that keeps each violation
# within 2 * PG_TOL.
KKT_TOL = 1e-5


def _expect(condition, message: str) -> None:
    # An explicit raise, so that the checks still run under ``python -O``.
    if not condition:
        raise AssertionError(message)


def loss_off_simplex(a: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """Reference ranking loss for arbitrary (non-simplex) weights, for
    finite differences around a point of the simplex."""
    j, k = np.nonzero(y[:, None] < y[None, :])
    s = a @ w
    z = s[k] - s[j]
    return float((np.maximum(-z, 0.0) + np.log1p(np.exp(-np.abs(z)))).sum()) / y.size**2


def reference_neg_lml_and_grad(theta, sq_diffs, z, *pairs):
    """The GP's negative log marginal likelihood and gradient, written
    straightforwardly over the pairs i > j of K's strict lower triangle, as
    ``gp._neg_lml_and_grad`` computes them, but without any in-place step.
    It takes ``gp._lml_args(x, z)`` like ``gp._neg_lml_and_grad``, so it can
    stand in for it inside ``gp.fit``; it builds its own pair indices."""
    dim, n = sq_diffs.shape[0], z.size
    rows, cols = np.tril_indices(n, -1)
    ls = np.exp(theta[:dim])
    sv = float(np.exp(theta[dim]))
    nv = float(np.exp(theta[dim + 1]))

    scaled = sq_diffs / (ls**2)[:, None]
    d2 = scaled.sum(axis=0)
    sqrt5_r = np.sqrt(d2) * gp.SQRT5
    decay = np.exp(-sqrt5_r)
    kf = sv * (1.0 + sqrt5_r + (5.0 / 3.0) * d2) * decay
    kn = np.zeros((n, n))
    kn[rows, cols] = kf
    kn[np.diag_indices(n)] = sv + nv
    chol, info = dpotrf(kn, lower=1)
    if info != 0:
        return gp._BAD_OBJECTIVE, np.zeros(dim + 2)

    alpha, _ = dpotrs(chol, z, lower=1)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.log(np.diag(chol)).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    kinv, info = dpotri(chol, lower=1)
    if info != 0:
        return gp._BAD_OBJECTIVE, np.zeros(dim + 2)
    g = alpha[rows] * alpha[cols] - kinv[rows, cols]
    diag_sum = float((alpha * alpha - np.diag(kinv)).sum())

    weighted = (5.0 / 3.0) * sv * (1.0 + sqrt5_r) * decay * g
    grad_ls = -(scaled @ weighted)
    grad_sv = -0.5 * (2.0 * float(kf @ g) + sv * diag_sum)
    grad_nv = -0.5 * nv * diag_sum
    return -lml, np.concatenate([grad_ls, [grad_sv, grad_nv]])


def dense_neg_lml_and_grad(theta, x, z):
    """The GP's negative log marginal likelihood and gradient at inputs
    ``x`` (n, d), written over the whole (n, n) kernel matrix: (n, n, d)
    differences, scipy's checked Cholesky routines, K^-1 from a solve against
    the identity, and one einsum. A formula independent of the packed one;
    see ``dense_lml_mismatch``."""
    sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2
    n, _, dim = sq_diffs.shape
    ls = np.exp(theta[:dim])
    sv = float(np.exp(theta[dim]))
    nv = float(np.exp(theta[dim + 1]))

    scaled = sq_diffs / ls**2
    d2 = scaled.sum(axis=2)
    r = np.sqrt(d2)
    decay = np.exp(-gp.SQRT5 * r)
    kf = sv * (1.0 + gp.SQRT5 * r + (5.0 / 3.0) * d2) * decay
    kn = kf + nv * np.eye(n)
    try:
        chol = cho_factor(kn, lower=True)
    except LinAlgError:
        return gp._BAD_OBJECTIVE, np.zeros(dim + 2)

    alpha = cho_solve(chol, z)
    lml = (
        -0.5 * float(z @ alpha)
        - float(np.log(np.diag(chol[0])).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    kinv = cho_solve(chol, np.eye(n))
    gmat = np.outer(alpha, alpha) - kinv

    base = (5.0 / 3.0) * sv * (1.0 + gp.SQRT5 * r) * decay
    grad_ls = 0.5 * np.einsum("ij,ijd->d", gmat * base, scaled)
    grad_sv = 0.5 * float((gmat * kf).sum())
    grad_nv = 0.5 * float(np.trace(gmat)) * nv
    grad = np.concatenate([grad_ls, [grad_sv, grad_nv]])
    return -lml, -grad


def lml_mismatch(theta, args) -> str | None:
    """How ``gp._neg_lml_and_grad`` differs from the reference at one point:
    in any bit of the value or gradient, by writing into an argument, or by
    other bits when called again; ``None`` when it does not."""
    before = [np.array(a) for a in (theta, *args)]
    got = np.append(*gp._neg_lml_and_grad(theta, *args))
    for i, (arg, copy) in enumerate(zip((theta, *args), before)):
        if arg.tobytes() != copy.tobytes():
            return f"argument {i} changed in the call"
    again = np.append(*gp._neg_lml_and_grad(theta, *args))
    if again.tobytes() != got.tobytes():
        return f"value and gradient {got}, then {again} when called again"
    want = np.append(*reference_neg_lml_and_grad(theta, *args))
    if got.tobytes() == want.tobytes():
        return None
    return f"value and gradient {got} vs reference {want}"


def dense_lml_mismatch(theta, x, z) -> str | None:
    """How ``gp._neg_lml_and_grad`` of (``x``, ``z``) at ``theta`` differs
    from the dense formula: by more than 8 n eps cond_2(K) max(1,
    |dense|_inf) in any entry of the value and gradient, the rounding a
    backward-stable factorization and inverse of K allow, or in whether the
    Cholesky factorization fails where 8 n eps cond_2(K) < 1; at worse
    conditioning rounding alone decides that outcome. ``None`` when it does
    not differ."""
    got = np.append(*gp._neg_lml_and_grad(theta, *gp._lml_args(x, z)))
    want = np.append(*dense_neg_lml_and_grad(theta, x, z))
    dim = x.shape[1]
    kf = gp._matern52(x, x, gp.KernelParams(np.exp(theta[:dim]), float(np.exp(theta[dim])), gp.NOISE_FLOOR))
    kn = kf + float(np.exp(theta[dim + 1])) * np.eye(x.shape[0])
    rounding = 8 * x.shape[0] * np.finfo(float).eps * np.linalg.cond(kn)
    got_failed, want_failed = got[0] == gp._BAD_OBJECTIVE, want[0] == gp._BAD_OBJECTIVE
    if got_failed or want_failed:
        if got_failed != want_failed and rounding < 1:
            return f"factorization failed: {got_failed} vs dense {want_failed} at 8 n eps cond_2(K) {rounding}"
        return None
    bound = rounding * max(1.0, np.abs(want).max())
    error = np.abs(got - want).max()
    if error <= bound:
        return None
    return f"value and gradient {got} vs dense {want}: error {error} above {bound}"


def lbfgsb_mismatch(x, z, theta0, lows, highs) -> str | None:
    """How ``gp._lbfgsb_minimize`` of the GP likelihood of (``x``, ``z``)
    from ``theta0`` within [``lows``, ``highs``] differs from the public
    ``scipy.optimize.minimize``: in any bit of x or the value, in the
    evaluation count, or in the value it reports at the start; ``None`` when
    it does not."""
    args = gp._lml_args(x, z)
    res = minimize(
        gp._neg_lml_and_grad, theta0, args=args, jac=True, method="L-BFGS-B",
        bounds=list(zip(lows, highs)),
    )
    got_x, got_f, got_nfev, got_f0 = gp._lbfgsb_minimize(gp._neg_lml_and_grad, theta0, args, lows, highs)
    want_f0, _ = gp._neg_lml_and_grad(np.clip(theta0, lows, highs), *args)
    got = (got_x.tobytes(), np.float64(got_f).tobytes(), got_nfev, got_f0)
    want = (res.x.tobytes(), np.float64(res.fun).tobytes(), res.nfev, want_f0)
    if got == want:
        return None
    return (
        f"x {got_x}, value {got_f}, nfev {got_nfev}, start value {got_f0}"
        f" vs {res.x}, {res.fun}, {res.nfev}, {want_f0}"
    )


def predict_mismatch(model: gp.GpSurrogate, x: np.ndarray) -> str | None:
    """How ``model.predict(x)``, which scores ``x`` in blocks of rows, differs
    in any bit from one ``gp._matern52``, ``ks @ alpha`` and ``dtrtrs`` over
    all rows of ``x``; ``None`` when it does not."""
    ks = gp._matern52(x, model.train_inputs, model.params)
    v, _ = dtrtrs(model._chol.T, ks.T, lower=0, trans=1)
    want = ks @ model._alpha, np.maximum(model.params.signal_variance - (v**2).sum(axis=0), gp.VARIANCE_FLOOR)
    got = model.predict(x)
    bad = [name for name, g, w in zip(("mean", "variance"), got, want) if g.tobytes() != w.tobytes()]
    return f"{x.shape[0]} rows: {' and '.join(bad)} differ" if bad else None


def ei_by_quadrature(mean: float, sigma: float, y_best: float) -> float:
    """Expected improvement below ``y_best`` of N(mean, sigma^2), by the
    trapezoid rule over mean +- 10 sigma."""
    ys = np.linspace(mean - 10 * sigma, mean + 10 * sigma, 100001)
    pdf = np.exp(-0.5 * ((ys - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return float(np.trapezoid(np.maximum(y_best - ys, 0.0) * pdf, ys))


def simplex_grid_min(pm: PredictionMatrix, step: float) -> float:
    """Brute-force minimum of the ranking loss over a simplex grid with the
    given spacing, for K in {1, 2, 3}."""
    if pm.k == 1:
        return ranking_loss(pm, SimplexWeights([1.0]))
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if pm.k == 2:
        return min(ranking_loss(pm, SimplexWeights([g, 1.0 - g])) for g in ticks)
    return min(
        ranking_loss(pm, SimplexWeights([g, h, 1.0 - g - h]))
        for g in ticks
        for h in np.arange(0.0, 1.0 - g + step / 2, step)
    )


def badly_scaled_problem(rng: np.random.Generator) -> PredictionMatrix:
    """A ranking problem with K in [2, 10] columns and n in [3, 40] rows:
    standard normal entries, each column scaled by 10^U(-3, 2), and standard
    normal performances."""
    k = int(rng.integers(2, 11))
    n = int(rng.integers(3, 41))
    a = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3.0, 2.0, size=k)
    return PredictionMatrix(a, rng.normal(size=n))


def kkt_violation(pm: PredictionMatrix, w: np.ndarray) -> str | None:
    """How the simplex point ``w`` misses optimality for the ranking loss on
    ``pm`` by more than ``KKT_TOL``; ``None`` when it does not. The
    conditions: no coordinate's gradient lies below the multiplier of the sum
    constraint (read off the largest weight), the gradient is level on the
    support, and the Frank-Wolfe gap g.w - min g, which bounds how far any
    simplex point beats w, is small."""
    g = ranking_loss_grad(pm, SimplexWeights(w))
    lam = g[np.argmax(w)]
    support = w > KKT_TOL
    gap = float(g @ w - g.min())
    if np.any(g < lam - KKT_TOL):
        return f"a coordinate offers descent: gradient {g}, multiplier {lam}"
    if np.any(np.abs(g[support] - lam) > KKT_TOL):
        return f"the support of {w} is not level: gradient {g}, multiplier {lam}"
    if gap > KKT_TOL:
        return f"Frank-Wolfe gap {gap} at {w}"
    return None


def check_encoding():
    s = space_mod.ConfigSpace(
        [
            space_mod.ParamSpec(name="a", kind="continuous", low=0, high=10),
            space_mod.ParamSpec(name="b", kind="categorical", categories=("x", "y", "z")),
            space_mod.ParamSpec(name="c", kind="continuous-log", low=0.01, high=2.0),
        ]
    )
    vec = space_mod.encode_batch(s, [space_mod.Configuration({"a": 5.0, "b": "y", "c": np.sqrt(0.02)})])[0]
    _expect(np.allclose(vec, [0.5, 0.0, 1.0, 0.0, 0.5], atol=1e-12), f"encoded {vec}")


def check_standardize():
    y = np.array([1.0, 2.0, 3.0])
    z = gp.standardize(y)
    _expect(abs(z.mean()) < 1e-12 and abs(z.std() - 1.0) < 1e-12, f"z {z}: mean {z.mean()}, std {z.std()}")
    _expect(z.tobytes() == ((y - y.mean()) / y.std()).tobytes(), f"z {z}, expected (y - mean) / std")
    _expect(not gp.standardize([4.0, 4.0]).any(), "z of equal values is not all zeros")


def check_ranking_loss_values():
    pm = PredictionMatrix(np.array([[0.0], [0.0]]), np.array([0.0, 1.0]))
    loss = ranking_loss(pm, SimplexWeights([1.0]))
    _expect(abs(loss - np.log(2.0) / 4.0) < 1e-12, f"loss {loss}, expected log(2)/4")


def check_ranking_gradient_fd():
    """50 random instances: gradient within relative error 1e-5 of central
    finite differences."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 6))
        a = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        pm = PredictionMatrix(a, y)
        w = project_to_simplex(rng.uniform(size=k))
        grad = ranking_loss_grad(pm, SimplexWeights(w))
        for d in range(k):
            e = np.zeros(k)
            e[d] = 1e-6
            fd = (loss_off_simplex(a, y, w + e) - loss_off_simplex(a, y, w - e)) / 2e-6
            _expect(
                abs(grad[d] - fd) <= 1e-5 * max(1.0, abs(fd)),
                f"n={n}, k={k}: gradient {grad[d]} vs finite difference {fd}",
            )


def check_simplex_solver_vs_grid():
    """30 instances with K in {2, 3}: the solver's loss within 1e-3 of the
    0.01-grid optimum, and its output on the simplex."""
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(5, 25))
        pm = PredictionMatrix(rng.normal(size=(n, k)), rng.normal(size=n))
        w = minimize_on_simplex(pm)
        _expect(w.values.min() >= -1e-9, f"negative weight in {w.values}")
        _expect(abs(w.values.sum() - 1.0) <= 1e-8, f"weights {w.values} do not sum to 1")
        solved, grid_best = ranking_loss(pm, w), simplex_grid_min(pm, 0.01)
        _expect(solved <= grid_best + 1e-3, f"n={n}, k={k}: loss {solved} vs grid {grid_best}")


def check_simplex_solver_kkt_badly_scaled():
    """200 problems with per-column scales 10^U(-3, 2) (see
    ``badly_scaled_problem``): the solver's output meets the KKT conditions
    within ``KKT_TOL``."""
    rng = np.random.default_rng(29)
    for i in range(200):
        pm = badly_scaled_problem(rng)
        violation = kkt_violation(pm, minimize_on_simplex(pm).values)
        _expect(violation is None, f"problem {i} (n={pm.n}, k={pm.k}): {violation}")


def check_expected_improvement_quadrature():
    """100 random triples: closed-form EI within 1e-6 of quadrature; exact
    plain improvement at zero variance."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        mean = float(rng.uniform(-2, 2))
        sigma = float(rng.uniform(0.05, 3.0))
        y_best = float(rng.uniform(-2, 2))
        quad = ei_by_quadrature(mean, sigma, y_best)
        closed = bo.expected_improvement(np.array([mean]), np.array([sigma**2]), y_best)[0]
        _expect(abs(closed - quad) <= 1e-6, f"EI({mean}, {sigma}, {y_best}): {closed} vs {quad}")
    plain = bo.expected_improvement(np.array([0.3, 0.7]), np.zeros(2), 0.5)
    _expect(plain.tolist() == [0.2, 0.0], f"EI([0.3, 0.7], 0, 0.5) = {plain}, not [0.2, 0]")


def check_average_rank_ties():
    np.testing.assert_array_equal(bench.average_rank([0.2, 0.3, 0.3, 0.45]), [1.0, 2.5, 2.5, 4.0])


def check_combined_prediction():
    """``transfer.tl_predict``: exact hand values, and vertex weights that
    pass a fitted source or target GP through bitwise."""
    source, target = [
        SimpleNamespace(input_dim=1, predict=lambda x, m=m: (np.full(1, m), np.full(1, 4.0))) for m in (1.0, 3.0)
    ]
    one = SimplexWeights([1.0])
    ensemble = transfer.SourceEnsemble(models=(source,))
    mean, var = transfer.tl_predict(ensemble, np.zeros((1, 1)), target, one, SimplexWeights([0.5, 0.5]))
    _expect(mean[0] == 2.0 and var[0] == 2.0, f"combined ({mean}, {var}), expected (2, 2)")

    rng = np.random.default_rng(0)
    x = rng.uniform(size=(8, 1))
    m1 = gp.fit(x, gp.standardize(rng.normal(size=8)), seed=0)
    m2 = gp.fit(x, gp.standardize(rng.normal(size=8)), seed=1)
    q = rng.uniform(size=(5, 1))
    for idx, member in enumerate((m1, m2)):
        p = SimplexWeights(np.eye(2)[idx])
        mean, var = transfer.tl_predict(transfer.SourceEnsemble(models=(m1,)), q, m2, one, p)
        ref_mean, ref_var = member.predict(q)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)


def check_likelihood_vs_reference():
    """The GP likelihood and its gradient against the packed reference
    formula, bit for bit, with its arguments unchanged and a second call's
    bits equal (see ``lml_mismatch``), at every d in 1..12: n in {2, 9, 40,
    75} at random parameters, and duplicated inputs at a noise of 1e-30,
    where the factorization must fail."""
    rng = np.random.default_rng(17)
    for dim in range(1, 13):
        lows, highs = gp._log_bounds(dim)
        for n in (2, 9, 40, 75):
            theta = rng.uniform(lows, highs)
            z = gp.standardize(rng.normal(size=n))
            mismatch = lml_mismatch(theta, gp._lml_args(rng.uniform(size=(n, dim)), z))
            _expect(mismatch is None, f"n={n}, d={dim}: {mismatch}")
        half = rng.uniform(size=(10, dim))
        args = gp._lml_args(np.concatenate([half, half]), gp.standardize(rng.normal(size=20)))
        highs[-1] = math.log(1e-30)  # with duplicated inputs, K is singular
        _expect(gp._neg_lml_and_grad(highs, *args)[0] == gp._BAD_OBJECTIVE, f"d={dim}: K factorized")
        mismatch = lml_mismatch(highs, args)
        _expect(mismatch is None, f"duplicated inputs, d={dim}: {mismatch}")


def check_likelihood_vs_dense():
    """The GP likelihood and its gradient against the dense formula within
    the bound of ``dense_lml_mismatch``, at every d in 1..12: n in {2, 9, 40,
    75} at random parameters, and duplicated inputs at random parameters and
    at a noise of 1e-30, where both factorizations must fail."""
    rng = np.random.default_rng(37)
    for dim in range(1, 13):
        lows, highs = gp._log_bounds(dim)
        for n in (2, 9, 40, 75):
            x = rng.uniform(size=(n, dim))
            z = gp.standardize(rng.normal(size=n))
            mismatch = dense_lml_mismatch(rng.uniform(lows, highs), x, z)
            _expect(mismatch is None, f"n={n}, d={dim}: {mismatch}")
        half = rng.uniform(size=(10, dim))
        x = np.concatenate([half, half])
        z = gp.standardize(np.sin(5.0 * x).sum(axis=1))
        failing = highs.copy()
        failing[-1] = math.log(1e-30)
        for theta in (rng.uniform(lows, highs), failing):
            mismatch = dense_lml_mismatch(theta, x, z)
            _expect(mismatch is None, f"duplicated inputs, d={dim}, at {theta}: {mismatch}")
        value, _ = dense_neg_lml_and_grad(failing, x, z)
        _expect(value == gp._BAD_OBJECTIVE, f"d={dim}: the failing point factorized, value {value}")


def check_lbfgsb_vs_minimize():
    """The fit's L-BFGS-B loop against ``scipy.optimize.minimize`` on GP
    likelihoods, bit for bit in x and value and equal in evaluation count:
    d in {1, 2, 4}, n in {2, 9, 40, 75}, starts inside the box and on its
    faces; and, with the noise bound widened below its floor and duplicated
    inputs, runs whose Cholesky factorization fails at the start and midway."""
    rng = np.random.default_rng(23)
    for dim in (1, 2, 4):
        lows, highs = gp._log_bounds(dim)
        for n in (2, 9, 40, 75):
            x = rng.uniform(size=(n, dim))
            z = gp.standardize(np.sin(5.0 * x).sum(axis=1) + 0.1 * rng.normal(size=n))
            inside = rng.uniform(lows, highs)
            on_faces = np.where(rng.uniform(size=dim + 2) < 0.5, lows, highs)
            on_faces[0] = inside[0]
            for theta0 in (inside, on_faces):
                mismatch = lbfgsb_mismatch(x, z, theta0, lows, highs)
                _expect(mismatch is None, f"n={n}, d={dim}, start {theta0}: {mismatch}")

        lows[-1] = math.log(1e-30)  # noise bound widened below its floor
        half = rng.uniform(size=(10, dim))
        x = np.concatenate([half, half])
        z = gp.standardize(np.sin(5.0 * x).sum(axis=1))
        failing = highs.copy()  # long length-scales, largest signal, ...
        failing[-1] = lows[-1]  # ... and noise 1e-30: K is singular
        midway = gp.KernelParams.defaults(dim).to_log_vector()  # descends into failing noise
        for theta0 in (failing, midway):
            mismatch = lbfgsb_mismatch(x, z, theta0, lows, highs)
            _expect(mismatch is None, f"duplicated inputs, d={dim}, start {theta0}: {mismatch}")
        value, _ = gp._neg_lml_and_grad(failing, *gp._lml_args(x, z))
        _expect(value == gp._BAD_OBJECTIVE, f"d={dim}: the failing start factorized, value {value}")


def check_predict_blocks():
    """Blocked prediction against the one-shot formulas, bit for bit, at the
    workloads' 75 training rows (128 rows per block): every rest from 1 to 128
    after one block, k blocks and one row, and 5000 or 5001 candidates."""
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(75, 2))
    model = gp.condition(x, gp.standardize(rng.normal(size=75)), gp.KernelParams([0.3, 0.7], 1.5, 1e-4))
    for m in [*range(129, 257), 1, 2, 128, 385, 5000, 5001]:
        mismatch = predict_mismatch(model, rng.uniform(size=(m, 2)))
        _expect(mismatch is None, mismatch)


CHECKS = (
    ("encoding", check_encoding),
    ("standardize", check_standardize),
    ("ranking-loss-values", check_ranking_loss_values),
    ("ranking-gradient-fd", check_ranking_gradient_fd),
    ("simplex-solver-vs-grid", check_simplex_solver_vs_grid),
    ("simplex-solver-kkt-badly-scaled", check_simplex_solver_kkt_badly_scaled),
    ("expected-improvement-quadrature", check_expected_improvement_quadrature),
    ("average-rank-ties", check_average_rank_ties),
    ("combined-prediction", check_combined_prediction),
    ("likelihood-vs-reference", check_likelihood_vs_reference),
    ("likelihood-vs-dense", check_likelihood_vs_dense),
    ("lbfgsb-vs-minimize", check_lbfgsb_vs_minimize),
    ("predict-blocks", check_predict_blocks),
)
