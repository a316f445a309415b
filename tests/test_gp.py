"""Tests for target standardization and the GP surrogate."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from tlbo import gp, oracles
from tlbo.errors import ValidationError
from tlbo.gp import (
    KernelParams,
    _lml_args,
    _neg_lml_and_grad,
    condition,
    fit,
    standardize,
)


def reference_matern52(x1, x2, params):
    """The Matern-5/2 cross-kernel written straightforwardly."""
    scaled1 = x1 / params.lengthscales
    scaled2 = x2 / params.lengthscales
    d2 = np.maximum(
        (scaled1**2).sum(axis=1)[:, None]
        - 2.0 * scaled1 @ scaled2.T
        + (scaled2**2).sum(axis=1)[None, :],
        0.0,
    )
    r = np.sqrt(d2)
    return params.signal_variance * (1.0 + gp.SQRT5 * r + (5.0 / 3.0) * d2) * np.exp(-gp.SQRT5 * r)


class TestStandardize:
    def test_degenerate_pair(self):
        np.testing.assert_array_equal(standardize([5.0, 5.0]), [0.0, 0.0])

    def test_hand_computed_population_std(self):
        z = standardize([1.0, 2.0, 3.0])
        np.testing.assert_allclose(z, [-1.224744871, 0.0, 1.224744871], atol=1e-9)

    def test_single_value(self):
        np.testing.assert_array_equal(standardize([42.0]), [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            standardize([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            standardize([1.0, np.inf])

    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.normal(3.0, 7.0, size=rng.integers(2, 40))
            z = standardize(y)
            assert abs(z.mean()) <= 1e-9
            assert abs(z.std() - 1.0) <= 1e-9
            assert z.tobytes() == ((y - y.mean()) / y.std()).tobytes()


class TestFit:
    def test_single_point_keeps_prior_far_away(self):
        m = fit(np.array([[0.5]]), np.array([0.0]), seed=0)
        mean, var = m.predict(np.array([[30.0]]))
        assert abs(mean[0]) < 1e-6
        assert var[0] == pytest.approx(m.params.signal_variance, rel=0.05)

    def test_interpolates_smooth_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(20, 1))
        z = standardize(np.sin(6.0 * x[:, 0]))
        m = fit(x, z, seed=0)
        mean, _ = m.predict(x)
        np.testing.assert_allclose(mean, z, atol=1e-3)

    def test_constant_targets_give_zero_mean(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(10, 2))
        m = fit(x, np.zeros(10), seed=0)
        mean, _ = m.predict(rng.uniform(size=(50, 2)))
        np.testing.assert_allclose(mean, 0.0, atol=1e-6)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(12, 2))
        z = standardize(rng.normal(size=12))
        m1 = fit(x, z, seed=5)
        m2 = fit(x, z, seed=5)
        np.testing.assert_array_equal(m1.params.lengthscales, m2.params.lengthscales)
        assert m1.params.noise_variance == m2.params.noise_variance

    def test_fitted_likelihood_at_least_default(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            x = rng.uniform(size=(15, 2))
            z = standardize(rng.normal(size=15))
            m = fit(x, z, seed=seed)
            args = _lml_args(x, z)
            lml_fit = -_neg_lml_and_grad(m.params.to_log_vector(), *args)[0]
            lml_default = -_neg_lml_and_grad(KernelParams.defaults(2).to_log_vector(), *args)[0]
            assert lml_fit >= lml_default - 1e-9

    @pytest.mark.parametrize("winner", [None, 3])
    def test_only_a_strictly_lower_start_replaces_the_defaults(self, winner, monkeypatch):
        # Every start reports the default parameters' own value, except
        # ``winner``, which reports one just below it.
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(6, 2))
        z = standardize(rng.normal(size=6))
        default_value, _ = _neg_lml_and_grad(KernelParams.defaults(2).to_log_vector(), *_lml_args(x, z))
        starts = []

        def tied(fun, theta0, args, lows, highs):
            starts.append(theta0)
            value = default_value
            if len(starts) - 1 == winner:
                value = np.nextafter(default_value, -np.inf)
            # The i-th start ends at theta = (-i, ..., -i).
            return np.full(lows.size, -float(len(starts) - 1)), value, 7, default_value

        monkeypatch.setattr(gp, "_lbfgsb_minimize", tied)
        m = fit(x, z, seed=0)
        assert len(starts) == 1 + gp.N_RESTARTS and m.fit_nfev == 7 * len(starts)
        assert m.fit_start == winner
        kept = KernelParams.defaults(2).to_log_vector() if winner is None else np.full(4, -3.0)
        assert m.params.to_log_vector().tobytes() == kept.tobytes()

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ValidationError):
            fit(np.array([[np.nan]]), np.array([0.0]))
        with pytest.raises(ValidationError):
            fit(np.array([[0.0]]), np.array([np.inf]))


class TestPredict:
    def test_near_interpolation_with_tiny_noise(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(15, 1))
        z = standardize(np.cos(4.0 * x[:, 0]))
        params = KernelParams(lengthscales=np.array([0.3]), signal_variance=1.0, noise_variance=1e-8)
        m = condition(x, z, params)
        mean, _ = m.predict(x)
        np.testing.assert_allclose(mean, z, atol=1e-3)

    def test_reverts_to_prior_far_from_data(self):
        x = np.linspace(0, 1, 8)[:, None]
        params = KernelParams(lengthscales=np.array([1.0]), signal_variance=2.5, noise_variance=1e-6)
        m = condition(x, np.sin(x[:, 0]), params)
        _, var = m.predict(np.array([[20.0]]))  # >= 10 length-scales from all data
        assert var[0] == pytest.approx(2.5, rel=0.05)

    def test_symmetric_data_gives_symmetric_posterior(self):
        x = np.linspace(0.0, 1.0, 9)[:, None]
        z = (x[:, 0] - 0.5) ** 2  # symmetric about 0.5
        m = fit(x, standardize(z), seed=0)
        grid = np.linspace(0.0, 1.0, 21)
        mean_left, _ = m.predict(grid[:, None])
        mean_right, _ = m.predict((1.0 - grid)[:, None])
        np.testing.assert_allclose(mean_left, mean_right, atol=1e-6)

    def test_training_variance_bounded_by_noise(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(12, 2))
        z = standardize(rng.normal(size=12))
        m = fit(x, z, seed=0)
        _, var = m.predict(x)
        assert np.all(var <= m.params.noise_variance + 1e-9)

    def test_pure_function_bitwise(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(10, 3))
        m = fit(x, standardize(rng.normal(size=10)), seed=0)
        q = rng.uniform(size=(5, 3))
        m1, v1 = m.predict(q)
        m2, v2 = m.predict(q)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    def test_dimension_mismatch_rejected(self):
        m = fit(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValidationError, match="query dimension 3"):
            m.predict(np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(), (2,), (1, 1, 2)])
    def test_query_that_is_not_2d_rejected(self, shape):
        m = fit(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValidationError, match="2-D"):
            m.predict(np.zeros(shape))

    def test_nonfinite_query_rejected(self):
        m = fit(np.zeros((2, 1)), np.zeros(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                m.predict(np.array([[0.5], [bad]]))

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(25, 2))
        m = fit(x, standardize(rng.normal(size=25)), seed=1)
        _, var = m.predict(rng.uniform(size=(200, 2)))
        assert np.all(var >= 0.0)

    def test_candidate_pass_working_set(self):
        """One 5000-candidate pass at 75 observations allocates at most 0.5 MB
        at its peak (0.30 MB traced when calibrated, against 3.17 MB for one
        (5000, 75) cross-kernel), as predict scores the rows in blocks."""
        rng = np.random.default_rng(9)
        x = rng.uniform(size=(75, 2))
        model = condition(x, standardize(rng.normal(size=75)), KernelParams(np.array([0.3, 0.7]), 1.5, 1e-4))
        q = rng.uniform(size=(5000, 2))
        model.predict(q)
        tracemalloc.start()
        try:
            model.predict(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**19, peak


class TestLikelihoodGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            x = rng.uniform(size=(5, 2))
            z = rng.normal(size=5)
            args = _lml_args(x, z)
            theta = rng.uniform(-1.0, 1.0, size=4)
            _, grad = _neg_lml_and_grad(theta, *args)
            for d in range(4):
                e = np.zeros(4)
                e[d] = 1e-5
                hi, _ = _neg_lml_and_grad(theta + e, *args)
                lo, _ = _neg_lml_and_grad(theta - e, *args)
                fd = (hi - lo) / 2e-5
                assert abs(grad[d] - fd) <= 1e-4 * max(1.0, abs(fd))


class TestLikelihoodMatchesReference:
    """The likelihood against ``oracles.reference_neg_lml_and_grad``, the
    same packed formula without in-place steps: bit for bit at every d in
    1..12, with its arguments unchanged and a second call's bits equal (see
    ``oracles.lml_mismatch``), also where the factorization fails."""

    @given(data=st.data(), n=st.integers(2, 80), dim=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_value_and_gradient(self, data, n, dim):
        log_bounds = np.log([gp.LENGTHSCALE_BOUNDS] * dim + [gp.SIGNAL_BOUNDS, gp.NOISE_BOUNDS])
        theta = np.array([data.draw(st.floats(lo, hi)) for lo, hi in log_bounds])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.uniform(size=(n, dim))
        z = standardize(rng.normal(size=n))
        mismatch = oracles.lml_mismatch(theta, _lml_args(x, z))
        assert mismatch is None, mismatch

    @given(data=st.data(), n=st.integers(2, 60), dim=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_failed_factorization(self, data, n, dim):
        # Duplicated inputs and noise 1e-30 make the factorization fail.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        half = rng.uniform(size=((n + 1) // 2, dim))
        x = np.concatenate([half, half])[:n]
        args = _lml_args(x, standardize(rng.normal(size=n)))
        failing = gp._log_bounds(dim)[1]
        failing[-1] = math.log(1e-30)
        assert _neg_lml_and_grad(failing, *args)[0] == gp._BAD_OBJECTIVE
        mismatch = oracles.lml_mismatch(failing, args)
        assert mismatch is None, mismatch

    @pytest.mark.parametrize("dim", [2, 4, 9])
    def test_fit_params_bitwise(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        cases = []
        for seed in range(3):
            n = int(rng.integers(8, 40))
            x = rng.uniform(size=(n, dim))
            cases.append((x, standardize(np.sin(4.0 * x).sum(axis=1) + 0.1 * rng.normal(size=n)), seed))
        fitted = [fit(x, z, seed=seed) for x, z, seed in cases]
        monkeypatch.setattr(gp, "_neg_lml_and_grad", oracles.reference_neg_lml_and_grad)
        for (x, z, seed), m in zip(cases, fitted):
            ref = fit(x, z, seed=seed)
            assert m.params.to_log_vector().tobytes() == ref.params.to_log_vector().tobytes()
            assert m.fit_nfev == ref.fit_nfev > 0


class TestLikelihoodMatchesDense:
    """The likelihood against ``oracles.dense_neg_lml_and_grad``, the
    formula over the whole (n, n) kernel matrix: within the rounding bound of
    ``oracles.dense_lml_mismatch``, and failing to factorize together."""

    @given(data=st.data(), n=st.integers(2, 80), dim=st.integers(1, 12), duplicated=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_value_and_gradient(self, data, n, dim, duplicated):
        # Duplicated inputs with noise down to 1e-30 make some factorizations fail.
        lows, highs = gp._log_bounds(dim)
        if duplicated:
            lows[-1] = math.log(1e-30)
        theta = np.array([data.draw(st.floats(lo, hi)) for lo, hi in zip(lows, highs)])
        self._assert_matches(theta, n, dim, duplicated, data.draw(st.integers(0, 2**32 - 1)))

    def test_kernel_singular_to_working_precision(self):
        # Drawn by the test above: the packed factorization fails and the dense
        # one succeeds, at 8 n eps cond_2(K) ~ 380, where rounding decides.
        theta = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 6.25, -30.0])
        self._assert_matches(theta, n=8, dim=8, duplicated=True, seed=0)

    @staticmethod
    def _assert_matches(theta, n, dim, duplicated, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, dim))
        if duplicated:
            x[n // 2 :] = x[: n - n // 2]
        z = standardize(rng.normal(size=n))
        mismatch = oracles.dense_lml_mismatch(theta, x, z)
        assert mismatch is None, mismatch


class TestKernelAndPredictionBits:
    """The in-place kernel and prediction against the straightforward
    formulas, bit for bit, with a query on a training point (where the
    squared distance is clamped at 0)."""

    @pytest.mark.parametrize("m", [1, 37, 5000])
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_bitwise(self, dim, m):
        rng = np.random.default_rng(100 * dim + m)
        for n in (1, 2, 40, 75):
            x = rng.uniform(size=(n, dim))
            params = KernelParams(
                lengthscales=np.exp(rng.uniform(-2.0, 2.0, size=dim)),
                signal_variance=float(np.exp(rng.uniform(-3.0, 3.0))),
                noise_variance=1e-6,
            )
            model = condition(x, standardize(rng.normal(size=n)), params)
            q = rng.uniform(size=(m, dim))
            q[0] = x[-1]
            ks = reference_matern52(q, x, params)
            assert gp._matern52(q, x, params).tobytes() == ks.tobytes()

            mean, var = model.predict(q)
            v = solve_triangular(model._chol, ks.T, lower=True)
            ref_var = np.maximum(params.signal_variance - (v**2).sum(axis=0), gp.VARIANCE_FLOOR)
            assert mean.tobytes() == (ks @ model._alpha).tobytes()
            assert var.tobytes() == ref_var.tobytes()

    @given(
        n=st.integers(2, 180),
        dim=st.integers(1, 4),
        blocks=st.integers(0, 2),
        rest=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=75, dim=2, blocks=6, rest=0.0, seed=0)
    @example(n=180, dim=3, blocks=1, rest=0.0, seed=1)
    @example(n=180, dim=1, blocks=2, rest=1.0, seed=2)
    @settings(max_examples=60, deadline=None)
    def test_blocked_predict_matches_one_shot(self, n, dim, blocks, rest, seed):
        """``predict`` scores m = k blocks plus a rest of 1 to a block's rows,
        bit for bit as one product and one solve over all m rows
        (``oracles.predict_mismatch``); ``rest=0.0`` is m = k blocks + 1 row.
        Up to 180 training rows: from about 190 on, this BLAS build computes
        the last rows of a block's kernel product by another path (see ``gp``)."""
        rows = gp._predict_rows(n)
        m = blocks * rows + 1 + int(rest * (rows - 1))
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, dim))
        params = KernelParams(np.exp(rng.uniform(-2.0, 1.0, size=dim)), np.exp(rng.uniform(-1.0, 1.0)), 1e-4)
        model = condition(x, standardize(rng.normal(size=n)), params)
        mismatch = oracles.predict_mismatch(model, rng.uniform(size=(m, dim)))
        assert mismatch is None, mismatch


class TestLbfgsbMatchesMinimize:
    """``gp._lbfgsb_minimize`` against ``scipy.optimize.minimize(method=
    "L-BFGS-B", jac=True)`` on GP likelihoods: x and value bit for bit, the
    same evaluation count, and the start's value."""

    @given(
        data=st.data(),
        n=st.integers(2, 75),
        dim=st.sampled_from([1, 2, 4]),
        duplicated=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_likelihoods(self, data, n, dim, duplicated):
        # Duplicated inputs with the noise bound widened below its floor let
        # the Cholesky factorization fail on the way.
        lows, highs = gp._log_bounds(dim)
        if duplicated:
            lows[-1] = math.log(1e-30)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.uniform(size=(n, dim))
        if duplicated:
            x[n // 2 :] = x[: n - n // 2]
        z = standardize(np.sin(5.0 * x).sum(axis=1) + 0.1 * rng.normal(size=n))
        faces = np.array(data.draw(st.lists(st.sampled_from("ilh"), min_size=dim + 2, max_size=dim + 2)))
        theta0 = np.where(faces == "l", lows, np.where(faces == "h", highs, rng.uniform(lows, highs)))
        mismatch = oracles.lbfgsb_mismatch(x, z, theta0, lows, highs)
        assert mismatch is None, mismatch

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_failed_factorizations_match(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        half = rng.uniform(size=(8, dim))
        x = np.concatenate([half, half])
        z = standardize(np.cos(3.0 * x).sum(axis=1))
        lows, highs = gp._log_bounds(dim)
        lows[-1] = math.log(1e-30)
        singular = highs.copy()
        singular[-1] = lows[-1]
        defaults = KernelParams.defaults(dim).to_log_vector()

        failures = []
        real = gp._neg_lml_and_grad

        def counting(theta, *args):
            value, grad = real(theta, *args)
            failures[-1] += value == gp._BAD_OBJECTIVE
            return value, grad

        monkeypatch.setattr(gp, "_neg_lml_and_grad", counting)
        for theta0 in (singular, defaults):
            failures.append(0)
            mismatch = oracles.lbfgsb_mismatch(x, z, theta0, lows, highs)
            assert mismatch is None, mismatch
        # The singular start fails in both optimizers and in the start value;
        # from the defaults both descend into a failing step.
        assert failures[0] >= 3 and failures[1] >= 2
