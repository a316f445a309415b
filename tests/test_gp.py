"""Tests for target standardization and the GP surrogate."""

import numpy as np
import pytest

from tlbo.errors import ValidationError
from tlbo.gp import (
    KernelParams,
    _neg_lml_and_grad,
    condition,
    fit,
    standardize,
)


class TestStandardize:
    def test_degenerate_pair(self):
        st = standardize([5.0, 5.0])
        np.testing.assert_array_equal(st.z, [0.0, 0.0])
        assert st.mean == 5.0 and st.std == 1.0

    def test_hand_computed_population_std(self):
        st = standardize([1.0, 2.0, 3.0])
        assert st.mean == pytest.approx(2.0)
        assert st.std == pytest.approx(np.sqrt(2.0 / 3.0))
        np.testing.assert_allclose(st.z, [-1.224744871, 0.0, 1.224744871], atol=1e-9)

    def test_single_value(self):
        st = standardize([42.0])
        np.testing.assert_array_equal(st.z, [0.0])
        assert st.mean == 42.0 and st.std == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            standardize([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            standardize([1.0, np.inf])

    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            st = standardize(rng.normal(3.0, 7.0, size=rng.integers(2, 40)))
            assert abs(st.z.mean()) <= 1e-9
            assert abs(st.z.std() - 1.0) <= 1e-9


class TestFit:
    def test_single_point_keeps_prior_far_away(self):
        m = fit(np.array([[0.5]]), np.array([0.0]), seed=0)
        mean, var = m.predict(np.array([30.0]))
        assert abs(mean) < 1e-6
        assert var == pytest.approx(m.params.signal_variance, rel=0.05)

    def test_interpolates_smooth_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(20, 1))
        z = standardize(np.sin(6.0 * x[:, 0])).z
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
        z = standardize(rng.normal(size=12)).z
        m1 = fit(x, z, seed=5)
        m2 = fit(x, z, seed=5)
        np.testing.assert_array_equal(m1.params.lengthscales, m2.params.lengthscales)
        assert m1.params.noise_variance == m2.params.noise_variance

    def test_fitted_likelihood_at_least_default(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            x = rng.uniform(size=(15, 2))
            z = standardize(rng.normal(size=15)).z
            m = fit(x, z, seed=seed)
            sq_diffs = (x[:, None, :] - x[None, :, :]) ** 2
            lml_fit = -_neg_lml_and_grad(m.params.to_log_vector(), sq_diffs, z)[0]
            lml_default = -_neg_lml_and_grad(KernelParams.defaults(2).to_log_vector(), sq_diffs, z)[0]
            assert lml_fit >= lml_default - 1e-9

    def test_nonfinite_inputs_rejected(self):
        with pytest.raises(ValidationError):
            fit(np.array([[np.nan]]), np.array([0.0]))
        with pytest.raises(ValidationError):
            fit(np.array([[0.0]]), np.array([np.inf]))


class TestPredict:
    def test_near_interpolation_with_tiny_noise(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(15, 1))
        z = standardize(np.cos(4.0 * x[:, 0])).z
        params = KernelParams(lengthscales=np.array([0.3]), signal_variance=1.0, noise_variance=1e-8)
        m = condition(x, z, params)
        mean, _ = m.predict(x)
        np.testing.assert_allclose(mean, z, atol=1e-3)

    def test_reverts_to_prior_far_from_data(self):
        x = np.linspace(0, 1, 8)[:, None]
        params = KernelParams(lengthscales=np.array([1.0]), signal_variance=2.5, noise_variance=1e-6)
        m = condition(x, np.sin(x[:, 0]), params)
        _, var = m.predict(np.array([20.0]))  # >= 10 length-scales from all data
        assert var == pytest.approx(2.5, rel=0.05)

    def test_symmetric_data_gives_symmetric_posterior(self):
        x = np.linspace(0.0, 1.0, 9)[:, None]
        z = (x[:, 0] - 0.5) ** 2  # symmetric about 0.5
        m = fit(x, standardize(z).z, seed=0)
        grid = np.linspace(0.0, 1.0, 21)
        mean_left, _ = m.predict(grid[:, None])
        mean_right, _ = m.predict((1.0 - grid)[:, None])
        np.testing.assert_allclose(mean_left, mean_right, atol=1e-6)

    def test_training_variance_bounded_by_noise(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(12, 2))
        z = standardize(rng.normal(size=12)).z
        m = fit(x, z, seed=0)
        _, var = m.predict(x)
        assert np.all(var <= m.params.noise_variance + 1e-9)

    def test_pure_function_bitwise(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(10, 3))
        m = fit(x, standardize(rng.normal(size=10)).z, seed=0)
        q = rng.uniform(size=(5, 3))
        m1, v1 = m.predict(q)
        m2, v2 = m.predict(q)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)

    def test_dimension_mismatch_rejected(self):
        m = fit(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValidationError):
            m.predict(np.zeros(3))

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(25, 2))
        m = fit(x, standardize(rng.normal(size=25)).z, seed=1)
        _, var = m.predict(rng.uniform(size=(200, 2)))
        assert np.all(var >= 0.0)


class TestLikelihoodGradient:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            x = rng.uniform(size=(5, 2))
            z = rng.normal(size=5)
            sq = (x[:, None, :] - x[None, :, :]) ** 2
            theta = rng.uniform(-1.0, 1.0, size=4)
            _, grad = _neg_lml_and_grad(theta, sq, z)
            for d in range(4):
                e = np.zeros(4)
                e[d] = 1e-5
                hi, _ = _neg_lml_and_grad(theta + e, sq, z)
                lo, _ = _neg_lml_and_grad(theta - e, sq, z)
                fd = (hi - lo) / 2e-5
                assert abs(grad[d] - fd) <= 1e-4 * max(1.0, abs(fd))
