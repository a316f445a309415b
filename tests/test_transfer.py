"""Tests for two-phase weight learning and combined prediction."""

import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tlbo import bench, bo, gp, transfer
from tlbo.errors import ValidationError
from tlbo.oracles import simplex_grid_min
from tlbo.ranking import PredictionMatrix, SimplexWeights, ranking_loss
from tlbo.transfer import (
    SourceEnsemble,
    assemble_phase2_matrix,
    learn_phase2_weights,
    learn_source_weights,
    source_means,
    tl_predict,
)


class StubModel:
    """Duck-typed surrogate with fixed affine predictions, for unit tests."""

    def __init__(self, slope, offset=0.0, variance=1.0):
        self.slope = slope
        self.offset = offset
        self.variance = variance
        self.input_dim = 1

    def predict(self, x):
        mean = self.slope * x[:, 0] + self.offset
        return mean, np.full(x.shape[0], self.variance)


def fitted_pair_ensemble(seed=0, n_source=40):
    """Two real GPs: one fitted on a smooth function, one on its negation."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=(n_source, 1))
    f = np.sin(5.0 * xs[:, 0])
    good = gp.fit(xs, gp.standardize(f), seed=1)
    bad = gp.fit(xs, gp.standardize(-f), seed=2)
    return SourceEnsemble(models=(good, bad))


def learn_w(sources, x, y):
    """Phase-1 weights of ``sources`` on the history (x, y)."""
    return learn_source_weights(source_means(sources, x), y)


def learn_p(sources, x, y, target_params, n_cv=transfer.N_CV_DEFAULT):
    """Phase-2 weights of ``sources`` against the target on the history (x, y)."""
    return learn_phase2_weights(source_means(sources, x), x, y, target_params, n_cv=n_cv)


class TestLearnSourceWeights:
    def test_single_source_gets_full_weight(self):
        ens = SourceEnsemble(models=(StubModel(1.0),))
        w = learn_w(ens, np.zeros((5, 1)), np.arange(5.0))
        np.testing.assert_array_equal(w.values, [1.0])

    def test_empty_history_gives_uniform(self):
        ens = SourceEnsemble(models=(StubModel(1.0), StubModel(2.0), StubModel(3.0)))
        w = learn_w(ens, np.zeros((0, 1)), np.zeros(0))
        np.testing.assert_allclose(w.values, [1 / 3] * 3)

    def test_tied_history_gives_uniform(self):
        ens = SourceEnsemble(models=(StubModel(1.0), StubModel(-1.0)))
        w = learn_w(ens, np.linspace(0, 1, 6)[:, None], np.ones(6))
        np.testing.assert_allclose(w.values, [0.5, 0.5])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValidationError):
            learn_w(SourceEnsemble(models=()), np.zeros((2, 1)), np.arange(2.0))

    def test_good_source_dominates_inverted_one(self):
        ens = fitted_pair_ensemble()
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(20, 1))
        y = np.sin(5.0 * x[:, 0])
        w = learn_w(ens, x, y)
        assert w.values[0] >= 0.9
        # grid oracle on the same prediction matrix confirms the solver
        pm = PredictionMatrix(source_means(ens, x), y)
        grid = np.arange(0.0, 1.0 + 1e-12, 0.01)
        grid_best = min(
            ranking_loss(pm, SimplexWeights([g, 1.0 - g])) for g in grid
        )
        assert ranking_loss(pm, w) <= grid_best + 1e-3

    def test_weights_ignore_member_variances(self):
        x = np.linspace(0, 1, 12)[:, None]
        y = np.sin(3.0 * x[:, 0])
        low_var = SourceEnsemble(models=(StubModel(1.0, variance=0.1), StubModel(-1.0, variance=0.1)))
        high_var = SourceEnsemble(models=(StubModel(1.0, variance=9.0), StubModel(-1.0, variance=9.0)))
        w1 = learn_w(low_var, x, y)
        w2 = learn_w(high_var, x, y)
        np.testing.assert_array_equal(w1.values, w2.values)


# Kernel hyperparameters for phase-2 calls that return a fallback or raise
# before any target GP is conditioned.
DEFAULT_PARAMS = gp.KernelParams.defaults(1)


class TestCvPartition:
    """Round-robin folds: ``transfer._cv_folds`` yields ``(train, held)`` masks."""

    @staticmethod
    def _held_sizes(n, n_cv=5):
        folds = list(transfer._cv_folds(n, n_cv))
        for f, (train, held) in enumerate(folds):
            np.testing.assert_array_equal(np.nonzero(held)[0], np.arange(f, n, n_cv))
            np.testing.assert_array_equal(train, ~held)
        return [int(held.sum()) for _, held in folds]

    def test_one_observation_per_fold(self):
        assert self._held_sizes(5) == [1] * 5

    def test_round_robin_on_uneven_split(self):
        assert self._held_sizes(7) == [2, 2, 1, 1, 1]

    def test_exact_division(self):
        assert self._held_sizes(10) == [2] * 5

    def test_folds_partition_index_set(self):
        held_out = np.concatenate([np.nonzero(held)[0] for _, held in transfer._cv_folds(13, 5)])
        np.testing.assert_array_equal(np.sort(held_out), np.arange(13))

    def test_single_fold_rejected(self):
        x = np.linspace(0, 1, 12)[:, None]
        for k in (0, 1):
            ens = SourceEnsemble(models=(StubModel(1.0),) * k)
            for n_cv in (1, 0, -1):
                with pytest.raises(ValidationError):
                    learn_p(ens, x, np.arange(12.0), DEFAULT_PARAMS, n_cv=n_cv)


class TestLearnPhase2Weights:
    def test_small_history_falls_back_to_source_only(self):
        ens = SourceEnsemble(models=(StubModel(1.0),))
        p = learn_p(ens, np.zeros((4, 1)), np.arange(4.0), DEFAULT_PARAMS, n_cv=5)
        np.testing.assert_array_equal(p.values, [1.0, 0.0])

    def test_no_sources_falls_back_to_target_only(self):
        p = learn_p(SourceEnsemble(models=()), np.zeros((20, 1)), np.arange(20.0), DEFAULT_PARAMS)
        np.testing.assert_array_equal(p.values, [0.0, 1.0])

    def test_tied_history_counts_as_insufficient(self):
        ens = SourceEnsemble(models=(StubModel(1.0),))
        p = learn_p(ens, np.zeros((12, 1)), np.ones(12), DEFAULT_PARAMS, n_cv=5)
        np.testing.assert_array_equal(p.values, [1.0, 0.0])

    def test_noise_sources_lose_to_smooth_target(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(size=(40, 1))
        noise_sources = SourceEnsemble(
            models=tuple(
                gp.fit(xs, gp.standardize(rng.normal(size=40)), seed=i) for i in range(2)
            )
        )
        x = np.linspace(0.0, 1.0, 25)[:, None]
        y = np.sin(4.0 * x[:, 0])
        params = gp.fit(x, gp.standardize(y), seed=0).params
        p = learn_p(noise_sources, x, y, params, n_cv=5)
        assert p.values[1] >= 0.5
        # 2-simplex grid oracle on the assembled matrix agrees with the solver
        matrix = assemble_phase2_matrix(source_means(noise_sources, x), x, y, params, 5)
        pm = PredictionMatrix(matrix, y)
        assert ranking_loss(pm, p) <= simplex_grid_min(pm, 0.001) + 1e-3

    @pytest.mark.parametrize("n", [5, 40, 200])
    @pytest.mark.parametrize("offset", [0.0, 1e-13, 9e-13])
    def test_columns_within_1e_12_resolve_to_target(self, monkeypatch, n, offset):
        # Columns within 1e-12 move every pair difference by at most 2e-12,
        # so every p's loss is within (1 - 1/n) * 1e-12 of the target
        # vertex's, and the tie rule must return the vertex exactly.
        rng = np.random.default_rng(n)
        src = rng.normal(size=n)
        tgt = src + offset * rng.choice([-1.0, 1.0], size=n)
        assert np.abs(tgt - src).max() <= 1e-12
        monkeypatch.setattr(transfer, "assemble_phase2_matrix", lambda *args: np.column_stack([src, tgt]))
        p = learn_phase2_weights(np.zeros((n, 1)), np.zeros((n, 1)), rng.normal(size=n), DEFAULT_PARAMS)
        assert p.values.tolist() == [0.0, 1.0]


class TestCvAssembly:
    def _setup(self, seed=5, n=15):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, 1))
        y = rng.normal(size=n)
        ens = SourceEnsemble(models=(StubModel(1.0), StubModel(-2.0, offset=0.3)))
        params = gp.KernelParams(
            lengthscales=np.array([0.2]), signal_variance=1.0, noise_variance=1e-8
        )
        return ens, x, y, params

    def test_holdout_predictions_are_not_interpolations(self):
        ens, x, y, params = self._setup()
        matrix = assemble_phase2_matrix(source_means(ens, x), x, y, params, 5)
        z = gp.standardize(y)
        # a leaky target column would reproduce z almost exactly
        assert np.abs(matrix[:, 1] - z).max() > 1e-2

    def test_leaking_folds_flips_the_check(self, monkeypatch):
        ens, x, y, params = self._setup()
        honest_folds = transfer._cv_folds
        monkeypatch.setattr(
            transfer,
            "_cv_folds",
            lambda n, n_cv: ((np.ones(n, dtype=bool), held) for _, held in honest_folds(n, n_cv)),
        )
        leaked = assemble_phase2_matrix(source_means(ens, x), x, y, params, 5)
        # with every fold trained on all data, the target column interpolates
        # (up to per-fold restandardization, which full folds make exact)
        z = gp.standardize(y)
        assert np.abs(leaked[:, 1] - z).max() < 1e-2

    def test_fold_weights_differ_without_leaks(self, monkeypatch):
        ens, x, y, params = self._setup(seed=6, n=20)
        a = source_means(ens, x)
        calls = []
        real = transfer.learn_source_weights

        def spy(a_train, y_train):
            w = real(a_train, y_train)
            calls.append((a_train, y_train, w))
            return w

        monkeypatch.setattr(transfer, "learn_source_weights", spy)
        assemble_phase2_matrix(a, x, y, params, 5)
        assert len(calls) == 5
        for fold, (a_train, y_train, _) in enumerate(calls):
            train = np.nonzero(np.arange(len(y)) % 5 != fold)[0]
            np.testing.assert_array_equal(a_train, a[train])
            np.testing.assert_array_equal(y_train, y[train])
        stacked = np.stack([w.values for _, _, w in calls])
        assert np.ptp(stacked, axis=0).max() > 0  # folds see different data

    def test_source_column_is_fold_combination(self, monkeypatch):
        # the target sums the two source functions, so every fold's weights are interior
        rng = np.random.default_rng(7)
        xs = rng.uniform(size=(30, 1))
        fs = (lambda t: np.sin(5.0 * t), lambda t: np.cos(7.0 * t))
        params = gp.KernelParams(lengthscales=np.array([0.2]), signal_variance=1.0, noise_variance=1e-4)
        ens = SourceEnsemble(
            models=tuple(gp.condition(xs, gp.standardize(f(xs[:, 0])), params) for f in fs)
        )
        x = np.random.default_rng(0).uniform(size=(17, 1))
        y = fs[0](x[:, 0]) + fs[1](x[:, 0])
        fold_weights = []
        real = transfer.learn_source_weights

        def spy(a_train, y_train):
            fold_weights.append(real(a_train, y_train))
            return fold_weights[-1]

        monkeypatch.setattr(transfer, "learn_source_weights", spy)
        matrix = assemble_phase2_matrix(source_means(ens, x), x, y, params, 5)
        assert not any(np.isin(w.values, (0.0, 1.0)).all() for w in fold_weights)  # interior
        for w_fold, (_, held) in zip(fold_weights, transfer._cv_folds(len(y), 5), strict=True):
            reference = sum(wi * m.predict(x[held])[0] for wi, m in zip(w_fold.values, ens.models))
            np.testing.assert_allclose(matrix[held, 0], reference, rtol=0.0, atol=1e-12)


class TestTlPredictCombination:
    """The combination's arithmetic: hand values on stub members with constant
    predictions, vertices and a weight vector of the wrong length."""

    def test_vertex_weights_reproduce_member_bitwise(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(10, 1))
        m1 = gp.fit(x, gp.standardize(rng.normal(size=10)), seed=0)
        m2 = gp.fit(x, gp.standardize(rng.normal(size=10)), seed=1)
        q = rng.uniform(size=(6, 1))
        vertex = SimplexWeights([1.0, 0.0])
        mean, var = tl_predict(SourceEnsemble(models=(m1, m2)), q, m2, vertex, vertex)
        ref_mean, ref_var = m1.predict(q)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)

    def test_hand_computed_combination(self):
        source = StubModel(0.0, offset=1.0, variance=4.0)
        target = StubModel(0.0, offset=3.0, variance=4.0)
        mean, var = tl_predict(
            SourceEnsemble(models=(source,)), np.zeros((1, 1)), target,
            SimplexWeights([1.0]), SimplexWeights([0.5, 0.5]),
        )
        assert mean.tolist() == [2.0] and var.tolist() == [2.0]

    def test_identical_members_shrink_variance(self):
        # k - 1 sources under uniform w and p = (1 - 1/k, 1/k): every member weighs 1/k
        k = 4
        member = StubModel(0.0, offset=1.5, variance=2.0)
        mean, var = tl_predict(
            SourceEnsemble(models=(member,) * (k - 1)), np.zeros((1, 1)), member,
            SimplexWeights.uniform(k - 1), SimplexWeights([1.0 - 1.0 / k, 1.0 / k]),
        )
        assert mean[0] == pytest.approx(1.5)
        assert var[0] == pytest.approx(2.0 / k)

    def test_dimension_mismatch_rejected(self):
        # two source weights for one source
        member = StubModel(1.0)
        with pytest.raises(ValidationError, match="weight dimension"):
            tl_predict(
                SourceEnsemble(models=(member,)), np.zeros((1, 1)), member,
                SimplexWeights([0.5, 0.5]), SimplexWeights([0.5, 0.5]),
            )


@functools.lru_cache(maxsize=None)
def _tl_models():
    """Five source GPs, a target GP and query points on 2-D inputs.

    Drawn as the first three sources, the target, the queries, then two more
    sources, so K = 3 reproduces a fixed hand-picked case.
    """
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(12, 2))
    models = [gp.fit(x, gp.standardize(rng.normal(size=12)), seed=i) for i in range(3)]
    target = gp.fit(x, gp.standardize(rng.normal(size=12)), seed=5)
    q = rng.uniform(size=(20, 2))
    models += [gp.fit(x, gp.standardize(rng.normal(size=12)), seed=i) for i in (3, 4)]
    return tuple(models), target, q


@st.composite
def _tl_weights(draw):
    """(w on the K-simplex for K in [1, 5], p on the 2-simplex)."""
    k = draw(st.integers(1, 5))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=k, max_size=k)))
    assume(raw.sum() > 0.0)
    p_target = draw(st.floats(0.0, 1.0))
    return SimplexWeights(raw / raw.sum()), SimplexWeights([1.0 - p_target, p_target])


class TestTlPredict:
    def _pair(self, seed=8):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(10, 1))
        src = gp.fit(x, gp.standardize(rng.normal(size=10)), seed=0)
        tgt = gp.fit(x, gp.standardize(rng.normal(size=10)), seed=1)
        return SourceEnsemble(models=(src,)), tgt

    def test_target_vertex_is_bitwise_target(self):
        sources, target = self._pair()
        q = np.random.default_rng(9).uniform(size=(5, 1))
        mean, var = tl_predict(sources, q, target, SimplexWeights([1.0]), SimplexWeights([0.0, 1.0]))
        ref_mean, ref_var = target.predict(q)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)

    def test_source_vertex_single_source_passthrough(self):
        sources, target = self._pair()
        q = np.random.default_rng(10).uniform(size=(5, 1))
        mean, var = tl_predict(sources, q, target, SimplexWeights([1.0]), SimplexWeights([1.0, 0.0]))
        ref_mean, ref_var = sources.models[0].predict(q)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)

    @given(weights=_tl_weights())
    @example(weights=(SimplexWeights([0.2, 0.5, 0.3]), SimplexWeights([0.4, 0.6])))
    @settings(max_examples=60, deadline=None)
    def test_flat_combination_matches_two_level_formula(self, weights):
        w, p = weights
        models, target, q = _tl_models()
        sources = SourceEnsemble(models=models[: w.dim])
        # Two-level reference: sources under w, then p over [combined source, target].
        m_s = sum(wi * m.predict(q)[0] for wi, m in zip(w.values, sources.models))
        v_s = sum(wi**2 * m.predict(q)[1] for wi, m in zip(w.values, sources.models))
        m_t, v_t = target.predict(q)
        p_s, p_t = p.values
        mean, var = tl_predict(sources, q, target, w, p)
        np.testing.assert_allclose(mean, p_s * m_s + p_t * m_t, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(var, p_s**2 * v_s + p_t**2 * v_t, rtol=0.0, atol=1e-12)
        # The vertices of p pass their component through bitwise.
        mean, var = tl_predict(sources, q, target, w, SimplexWeights([0.0, 1.0]))
        np.testing.assert_array_equal(mean, m_t)
        np.testing.assert_array_equal(var, v_t)
        mean, var = tl_predict(sources, q, target, w, SimplexWeights([1.0, 0.0]))
        np.testing.assert_array_equal(mean, m_s)
        np.testing.assert_array_equal(var, v_s)

    def test_invariant_validation(self):
        _, target = self._pair()
        q = np.zeros((3, 1))
        # no sources, yet p puts weight on them: the weights [0.0] are off the simplex
        with pytest.raises(ValidationError):
            tl_predict(SourceEnsemble(models=()), q, target, None, SimplexWeights([1.0, 0.0]))


class TestPhase1KnownAnswer:
    def test_planted_copy_of_the_target_carries_most_of_w(self):
        # Branin family 3, target 0. Source 0 is task 0's own static source, a
        # GP fitted on 50 noisy rows of the target itself (the one run_static
        # hands a second target); the other five tasks follow as flipped sources.
        # Phase 1 must give the copy most of w, more than half, from trial 6
        # on. Calibrated once on these five runs: from trial 6 on the copy's
        # weight never fell below 0.811, while trials 3-5 went as low as 0.291.
        tasks = bench.make_synthetic_family(bench.SyntheticFamilySpec(base="branin", n_tasks=6, seed=3))
        target = tasks[0]
        flipped = bench.build_static_sources(tasks, 0, 50, flip_source_outputs=True)
        planted = bench._static_source(target, 0, 50, 0, False)
        sources = SourceEnsemble(models=(planted, *flipped.models))
        for seed in range(5):
            noise = np.random.default_rng(bo.derived_seed(0, bench._TAG_NOISE, 0, seed))
            result = bo.run(
                target.space, target.make_objective(noise), sources=sources, policy="transbo",
                budget=20, seed=bo.derived_seed(0, bench._TAG_RUN, 0, seed),
            )
            planted_w = [r["w"][0] for r in result.records[6:]]
            assert min(planted_w) > 0.5, f"BO seed {seed}: the copy's weight from trial 6 on: {planted_w}"
