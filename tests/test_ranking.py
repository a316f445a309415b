"""Tests for the pairwise ranking loss and the simplex minimizer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tlbo import ranking
from tlbo.errors import SolverError, ValidationError
from tlbo.oracles import KKT_TOL, badly_scaled_problem, kkt_violation, loss_off_simplex, simplex_grid_min
from tlbo.ranking import (
    PredictionMatrix,
    SimplexWeights,
    minimize_on_simplex,
    project_to_simplex,
    ranking_loss,
    ranking_loss_grad,
)


@st.composite
def ranking_problems(draw):
    """A prediction matrix with K in [2, 10] columns, n in [3, 40] rows,
    entries in [-5, 5] (the scale of standardized GP means), and at least one
    strict performance pair."""
    k = draw(st.integers(2, 10))
    n = draw(st.integers(3, 40))
    a = draw(arrays(np.float64, (n, k), elements=st.floats(-5, 5, allow_subnormal=False)))
    y = draw(arrays(np.float64, n, elements=st.floats(-3, 3, allow_subnormal=False)))
    assume(np.unique(y).size > 1)
    return PredictionMatrix(a, y)


class TestSimplexWeights:
    def test_clips_tiny_negatives(self):
        w = SimplexWeights([1.0 + 1e-10, -1e-10])
        assert w.values.min() >= 0.0

    def test_rejects_real_negatives(self):
        with pytest.raises(ValidationError):
            SimplexWeights([1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            SimplexWeights([0.5, 0.4])

    def test_uniform(self):
        np.testing.assert_allclose(SimplexWeights.uniform(4).values, [0.25] * 4)

    @pytest.mark.parametrize(
        "values", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0], [-math.inf, 1.0]]
    )
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValidationError, match="finite"):
            SimplexWeights(values)


class TestRankingLoss:
    def test_single_observation_has_no_pairs(self):
        pm = PredictionMatrix(np.array([[1.0]]), np.array([3.0]))
        assert ranking_loss(pm, SimplexWeights([1.0])) == 0.0

    def test_two_equal_predictions(self):
        pm = PredictionMatrix(np.array([[0.0], [0.0]]), np.array([0.0, 1.0]))
        assert ranking_loss(pm, SimplexWeights([1.0])) == pytest.approx(math.log(2.0) / 4.0)

    def test_strong_correct_ordering(self):
        pm = PredictionMatrix(np.array([[-10.0], [10.0]]), np.array([0.0, 1.0]))
        expected = math.log1p(math.exp(-20.0)) / 4.0  # ~5.15e-10
        assert ranking_loss(pm, SimplexWeights([1.0])) == pytest.approx(expected, rel=1e-12)

    def test_stable_for_huge_score_gaps(self):
        pm = PredictionMatrix(np.array([[-1000.0], [1000.0]]), np.array([0.0, 1.0]))
        assert ranking_loss(pm, SimplexWeights([1.0])) == 0.0  # underflows cleanly
        pm_bad = PredictionMatrix(np.array([[1000.0], [-1000.0]]), np.array([0.0, 1.0]))
        assert np.isfinite(ranking_loss(pm_bad, SimplexWeights([1.0])))

    def test_dimension_mismatch(self):
        pm = PredictionMatrix(np.zeros((3, 2)), np.arange(3.0))
        with pytest.raises(ValidationError):
            ranking_loss(pm, SimplexWeights([1.0]))

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValidationError):
            PredictionMatrix(np.array([[np.nan]]), np.array([0.0]))

    @given(
        a=arrays(np.float64, (6, 2), elements=st.floats(-5, 5)),
        y=arrays(np.float64, 6, elements=st.floats(-3, 3)),
        shift=st.floats(-10, 10),
        scale=st.floats(0.1, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_depends_on_y_only_through_order(self, a, y, shift, scale):
        from hypothesis import assume

        y2 = scale * y + shift
        # float rounding may collapse near-ties; the claim is about the pair set
        assume(np.array_equal(y[:, None] < y[None, :], y2[:, None] < y2[None, :]))
        w = SimplexWeights([0.3, 0.7])
        base = ranking_loss(PredictionMatrix(a, y), w)
        transformed = ranking_loss(PredictionMatrix(a, y2), w)
        assert base == transformed  # bitwise: the pair set is identical


class TestRankingGradient:
    def test_no_pairs_gives_zero_vector(self):
        pm = PredictionMatrix(np.ones((3, 2)), np.zeros(3))
        np.testing.assert_array_equal(ranking_loss_grad(pm, SimplexWeights([0.5, 0.5])), [0.0, 0.0])

    def test_identical_predictions_give_zero(self):
        pm = PredictionMatrix(np.array([[0.0], [0.0]]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(ranking_loss_grad(pm, SimplexWeights([1.0])), [0.0])

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, k = int(rng.integers(2, 12)), int(rng.integers(1, 4))
            a = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            pm = PredictionMatrix(a, y)
            w = project_to_simplex(rng.uniform(size=k))
            grad = ranking_loss_grad(pm, SimplexWeights(w))
            for d in range(k):
                e = np.zeros(k)
                e[d] = 1e-6
                fd = (loss_off_simplex(a, y, w + e) - loss_off_simplex(a, y, w - e)) / 2e-6
                assert abs(grad[d] - fd) <= 1e-5 * max(1.0, abs(fd))


class TestProjection:
    @given(v=arrays(np.float64, 4, elements=st.floats(-10, 10)))
    @settings(max_examples=100, deadline=None)
    def test_output_is_on_simplex(self, v):
        p = project_to_simplex(v)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-9

    @given(v=arrays(np.float64, 4, elements=st.floats(-10, 10)))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, v):
        p = project_to_simplex(v)
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-12)

    def test_simplex_points_are_fixed(self):
        for w in ([1.0, 0.0], [0.25, 0.75], [0.5, 0.5]):
            np.testing.assert_allclose(project_to_simplex(np.array(w)), w, atol=1e-12)


class TestMinimizeOnSimplex:
    def test_single_column_returns_one(self):
        pm = PredictionMatrix(np.random.default_rng(0).normal(size=(5, 1)), np.arange(5.0))
        np.testing.assert_array_equal(minimize_on_simplex(pm).values, [1.0])

    def test_perfect_vs_inverted_predictor(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=10)
        pm = PredictionMatrix(np.column_stack([y, -y]), y)
        w = minimize_on_simplex(pm)
        # fine-grid oracle confirms the minimizer sits at the first vertex
        grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
        grid_w = min(grid, key=lambda g: ranking_loss(pm, SimplexWeights([g, 1.0 - g])))
        assert abs(grid_w - 1.0) < 1e-9
        assert abs(w.values[0] - 1.0) <= 1e-2

    def test_identical_columns_return_uniform(self):
        col = np.random.default_rng(2).normal(size=8)
        pm = PredictionMatrix(np.column_stack([col, col, col]), np.arange(8.0))
        w = minimize_on_simplex(pm)
        np.testing.assert_allclose(w.values, [1 / 3] * 3, atol=1e-12)

    def test_all_tied_y_returns_uniform(self):
        pm = PredictionMatrix(np.random.default_rng(3).normal(size=(4, 2)), np.ones(4))
        assert minimize_on_simplex(pm).values.tolist() == [0.5, 0.5]

    def test_beats_brute_force_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            k = int(rng.integers(2, 4))
            pm = PredictionMatrix(rng.normal(size=(15, k)), rng.normal(size=15))
            w = minimize_on_simplex(pm)
            assert ranking_loss(pm, w) <= simplex_grid_min(pm, 0.01) + 1e-3

    @staticmethod
    def _assert_optimal(pm):
        w = minimize_on_simplex(pm).values
        violation = kkt_violation(pm, w)
        assert violation is None, violation
        # By convexity, no point of the simplex (the uniform start, any
        # vertex) beats w by more than the Frank-Wolfe gap.
        g = ranking_loss_grad(pm, SimplexWeights(w))
        gap = float(g @ w - g.min())
        achieved = ranking_loss(pm, SimplexWeights(w))
        assert achieved <= ranking_loss(pm, SimplexWeights.uniform(pm.k)) + 1e-12
        for vertex in np.eye(pm.k):
            assert achieved <= ranking_loss(pm, SimplexWeights(vertex)) + gap + 1e-12

    @given(pm=ranking_problems())
    @settings(max_examples=80, deadline=None)
    def test_kkt_conditions_hold(self, pm):
        self._assert_optimal(pm)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_kkt_conditions_hold_on_badly_scaled_columns(self, seed):
        # Per-column scales 10^U(-3, 2) make the Hessian's diagonal span ten
        # orders of magnitude, which a first-order step cannot cross within
        # any practical iteration cap.
        self._assert_optimal(badly_scaled_problem(np.random.default_rng(seed)))

    def test_newton_iterations_are_few(self, monkeypatch):
        # One quadratic-model solve per Newton iteration, one evaluation per
        # iterate and per rejected trial step; all deterministic.
        counts = {"iterations": 0, "evaluations": 0}

        def counting(name, key):
            real = getattr(ranking, name)

            def wrapper(*args):
                counts[key] += 1
                return real(*args)

            monkeypatch.setattr(ranking, name, wrapper)

        counting("_newton_point", "iterations")
        counting("_loss_grad_hess", "evaluations")
        rng = np.random.default_rng(6)
        worst = {"iterations": 0, "evaluations": 0}
        for k in range(2, 11):
            for n in (5, 10, 20, 40):
                counts.update(iterations=0, evaluations=0)
                minimize_on_simplex(PredictionMatrix(rng.normal(size=(n, k)), rng.normal(size=n)))
                assert counts["iterations"] >= 1
                worst = {key: max(worst[key], counts[key]) for key in worst}
        # Observed at most 4 iterations and 5 evaluations on these problems.
        assert worst["iterations"] <= 8
        assert worst["evaluations"] <= 10
        counts.update(iterations=0, evaluations=0)
        minimize_on_simplex(PredictionMatrix(rng.normal(size=(5, 1)), np.arange(5.0)))
        minimize_on_simplex(PredictionMatrix(rng.normal(size=(5, 3)), np.ones(5)))
        assert counts == {"iterations": 0, "evaluations": 0}  # a single column or no strict pair

    def test_projected_gradient_step_when_newton_fails_to_descend(self, monkeypatch):
        # A model solve that returns the iterate gives no descent direction;
        # the solver must then move along the projected-gradient step.
        monkeypatch.setattr(ranking, "_newton_point", lambda h, g, x, z: x)
        rng = np.random.default_rng(8)
        pm = PredictionMatrix(rng.normal(size=(12, 4)), rng.normal(size=12))
        w = minimize_on_simplex(pm)
        assert w.values.min() >= 0.0 and abs(w.values.sum() - 1.0) <= 1e-8
        assert ranking_loss(pm, w) < ranking_loss(pm, SimplexWeights.uniform(4)) - 1e-6

    def test_non_finite_loss_raises_with_the_last_iterate(self):
        # Finite entries whose pair differences overflow to infinity.
        pm = PredictionMatrix(np.array([[1e308, 0.0], [-1e308, 0.0]]), np.array([0.0, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SolverError):
            minimize_on_simplex(pm)

    def test_output_satisfies_simplex_invariants(self):
        rng = np.random.default_rng(7)
        pm = PredictionMatrix(rng.normal(size=(9, 4)), rng.normal(size=9))
        w = minimize_on_simplex(pm)
        assert w.values.min() >= 0.0
        assert abs(w.values.sum() - 1.0) <= 1e-8
