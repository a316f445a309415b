"""Tests for EI acquisition and the sequential optimization loop."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlbo import bench, bo, gp, transfer
from tlbo.bo import (
    Observation,
    OptimizerState,
    RunResult,
    TaskHistory,
    expected_improvement,
    observe,
    run,
    suggest,
)
from tlbo.errors import ValidationError
from tlbo.oracles import ei_by_quadrature
from tlbo.space import ConfigSpace, Configuration, ParamSpec, sample_uniform
from tlbo.transfer import SourceEnsemble, apply_nondecreasing_prior


def one_d_space(low=0.0, high=1.0) -> ConfigSpace:
    return ConfigSpace([ParamSpec(name="x", kind="continuous", low=low, high=high)])


def quadratic(config: Configuration) -> float:
    return (config.values["x"] - 0.3) ** 2


class TestExpectedImprovement:
    def test_zero_variance_is_plain_improvement(self):
        assert expected_improvement(0.3, 0.0, 0.5) == 0.2
        assert expected_improvement(0.7, 0.0, 0.5) == 0.0

    def test_at_the_incumbent_mean(self):
        # EI(mean = y_best, sigma = 1) = 1 / sqrt(2 pi)
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(0.3989422804014327)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            mean = float(rng.uniform(-2, 2))
            sigma = float(rng.uniform(0.05, 3.0))
            y_best = float(rng.uniform(-2, 2))
            quad = ei_by_quadrature(mean, sigma, y_best)
            assert expected_improvement(mean, sigma**2, y_best) == pytest.approx(quad, abs=1e-6)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            expected_improvement(0.0, -1e-3, 0.0)

    def test_increasing_in_sigma_when_mean_above_best(self):
        sigmas = np.arange(0.1, 5.0, 0.1)
        values = expected_improvement(np.full_like(sigmas, 1.0), sigmas**2, 0.0)
        assert np.all(np.diff(values) > 0)

    def test_decreasing_in_mean(self):
        means = np.arange(-2.0, 2.0, 0.1)
        values = expected_improvement(means, np.ones_like(means), 0.0)
        assert np.all(np.diff(values) < 0)

    def test_argmax_invariant_to_common_shift(self):
        rng = np.random.default_rng(1)
        means = rng.normal(size=50)
        variances = rng.uniform(0.01, 2.0, size=50)
        base = expected_improvement(means, variances, 0.2)
        shifted = expected_improvement(means + 7.5, variances, 0.2 + 7.5)
        assert int(np.argmax(base)) == int(np.argmax(shifted))


class TestHistory:
    def test_iteration_indices_strictly_increase(self):
        h = TaskHistory()
        h.add(Observation(config=Configuration({"x": 0.1}), y=1.0, iteration=0))
        with pytest.raises(ValidationError):
            h.add(Observation(config=Configuration({"x": 0.1}), y=1.0, iteration=0))


class TestObserve:
    def _state(self, policy="igp"):
        return OptimizerState(
            space=one_d_space(),
            history=TaskHistory(),
            sources=SourceEnsemble(models=()),
            policy=policy,
            budget=10,
            seed=0,
        )

    def test_first_observation_records_no_weights(self):
        state = self._state()
        assert observe(state, Configuration({"x": 0.5}), 1.0) is state
        assert len(state.history) == 1

    def test_repeated_config_kept(self):
        state = self._state()
        observe(state, Configuration({"x": 0.5}), 1.0)
        observe(state, Configuration({"x": 0.5}), 2.0)
        assert len(state.history) == 2  # noisy objectives are not deduplicated

    def test_target_gp_trained_on_standardized_history(self):
        state = self._state()
        for i, y in enumerate([5.0, 9.0, 2.0]):
            observe(state, Configuration({"x": 0.1 * (i + 1)}), y)
        assert abs(state.target_gp.train_targets.mean()) <= 1e-9

    def test_nonfinite_y_rejected(self):
        state = self._state()
        with pytest.raises(ValidationError):
            observe(state, Configuration({"x": 0.5}), float("nan"))


class TestSuggest:
    def test_tabular_single_remaining_candidate(self):
        space = one_d_space()
        grid = [Configuration({"x": v}) for v in (0.1, 0.4, 0.6, 0.9)]
        for policy in ("transbo", "igp", "random"):
            result = run(
                space,
                quadratic,
                policy=policy,
                budget=4,
                seed=3,
                candidate_grid=grid,
            )
            seen = {c.values["x"] for c in result.history.configs()}
            assert seen == {0.1, 0.4, 0.6, 0.9}  # the last suggestion is forced

    def test_requires_initial_design(self):
        state = OptimizerState(
            space=one_d_space(),
            history=TaskHistory(),
            sources=SourceEnsemble(models=()),
            policy="igp",
            budget=5,
            seed=0,
        )
        with pytest.raises(ValidationError):
            suggest(state)

    def test_igp_locates_quadratic_minimum(self):
        # with 10 observations of (x - 0.3)^2 the suggestion should sit near 0.3
        space = one_d_space()
        hits = 0
        for seed in range(20):
            state = OptimizerState(
                space=space,
                history=TaskHistory(),
                sources=SourceEnsemble(models=()),
                policy="igp",
                budget=11,
                seed=seed,
            )
            for i, config in enumerate(sample_uniform(space, 10, seed=seed)):
                observe(state, config, quadratic(config))
            x = suggest(state)[0].values["x"]
            hits += abs(x - 0.3) <= 0.15
        assert hits >= 16

    def test_pool_depends_only_on_seed_and_iteration(self):
        space = one_d_space()
        states = []
        for policy in ("igp", "transbo"):
            state = OptimizerState(
                space=space,
                history=TaskHistory(),
                sources=SourceEnsemble(models=()),
                policy=policy,
                budget=9,
                seed=7,
            )
            for config in sample_uniform(space, 4, seed=1):
                observe(state, config, quadratic(config))
            states.append(state)
        pool_a, _ = bo._candidate_pool(states[0], 4)
        pool_b, _ = bo._candidate_pool(states[1], 4)
        np.testing.assert_array_equal(pool_a, pool_b)

    def test_no_sources_transbo_matches_igp(self):
        space = one_d_space()
        a = run(space, quadratic, policy="transbo", budget=8, seed=5)
        b = run(space, quadratic, policy="igp", budget=8, seed=5)
        assert [o.config for o in a.history.observations] == [
            o.config for o in b.history.observations
        ]
        np.testing.assert_array_equal(a.history.ys(), b.history.ys())


class TestRun:
    def test_budget_three_is_pure_initialization(self):
        result = run(one_d_space(), quadratic, policy="transbo", budget=3, seed=2)
        assert len(result.history) == 3
        assert all(r["p_target"] is None for r in result.records)

    def test_bitwise_deterministic(self):
        kwargs = dict(policy="igp", budget=7, seed=11)
        a = run(one_d_space(), quadratic, **kwargs)
        b = run(one_d_space(), quadratic, **kwargs)
        assert [o.config for o in a.history.observations] == [
            o.config for o in b.history.observations
        ]
        np.testing.assert_array_equal(a.history.ys(), b.history.ys())

    def test_random_tabular_evaluates_distinct_rows(self):
        space = one_d_space()
        grid = [Configuration({"x": v}) for v in np.linspace(0.0, 1.0, 1000)]
        lookup = {bo._config_key(c): quadratic(c) for c in grid}
        result = run(
            space,
            lambda c: lookup[bo._config_key(c)],
            policy="random",
            budget=50,
            seed=9,
            candidate_grid=grid,
        )
        keys = {bo._config_key(c) for c in result.history.configs()}
        assert len(keys) == 50

    def test_incumbent_nonincreasing_all_policies(self):
        for policy in ("transbo", "igp", "random"):
            result = run(one_d_space(), quadratic, policy=policy, budget=10, seed=4)
            assert np.all(np.diff(result.incumbents()) <= 0)

    def test_failed_evaluations_imputed_and_flagged(self):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] == 5:
                raise RuntimeError("evaluation crashed")
            return quadratic(config)

        result = run(one_d_space(), flaky, policy="igp", budget=8, seed=6)
        assert len(result.history) == 8
        failed = [r for r in result.records if r["failed"]]
        assert len(failed) == 1
        prior_ys = [r["y"] for r in result.records[:4]]
        expected = max(prior_ys) + np.std(prior_ys)
        assert failed[0]["y"] == pytest.approx(expected)
        assert failed[0]["error"] == "RuntimeError: evaluation crashed"

    def test_failed_first_trial_never_becomes_the_incumbent(self):
        calls = {"n": 0}

        def crash_first(config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("evaluation crashed")
            return quadratic(config) + 5.0

        result = run(one_d_space(), crash_first, policy="igp", budget=6, seed=6)
        ys = [r["y"] for r in result.records]
        assert ys[0] == 0.0  # the imputation anchor the surrogate trains on
        assert min(ys[1:]) >= 5.0
        assert result.records[0]["incumbent_y"] is None
        assert [r["incumbent_y"] for r in result.records[1:]] == list(np.minimum.accumulate(ys[1:]))
        assert result.incumbents()[0] == math.inf
        loaded = json.loads(json.dumps(result.records))  # null survives JSON
        assert loaded[0]["incumbent_y"] is None

    @given(mask=st.lists(st.booleans(), min_size=6, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_imputed_value_is_never_the_incumbent(self, mask):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if mask[calls["n"] - 1]:
                raise ValueError(f"trial {calls['n'] - 1} crashed")
            return quadratic(config)

        result = run(one_d_space(), flaky, policy="igp", budget=6, seed=3)
        real = [r["y"] for r in result.records if not r["failed"]]
        best = None
        for r, failed in zip(result.records, mask):
            assert r["failed"] is failed
            assert r["error"] == (f"ValueError: trial {r['iteration']} crashed" if failed else None)
            if failed and r["y"] not in real:
                assert all(other["incumbent_y"] != r["y"] for other in result.records)
            if not failed:
                best = r["y"] if best is None else min(best, r["y"])
            assert r["incumbent_y"] == best

    def test_budget_below_n_init_rejected(self):
        with pytest.raises(ValidationError):
            run(one_d_space(), quadratic, budget=2, seed=0)

    @pytest.mark.parametrize("n_cv", [1, 0, -1])
    @pytest.mark.parametrize("policy", bo.POLICIES)
    def test_fewer_than_two_folds_rejected_before_any_evaluation(self, policy, n_cv):
        calls = []

        def objective(config):
            calls.append(config)
            return quadratic(config)

        with pytest.raises(ValidationError):
            run(one_d_space(), objective, policy=policy, budget=6, seed=0, n_cv=n_cv)
        assert calls == []

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            run(one_d_space(), quadratic, policy="annealing", budget=5, seed=0)

    def test_grid_smaller_than_budget_rejected(self):
        grid = [Configuration({"x": 0.5})]
        with pytest.raises(ValidationError):
            run(one_d_space(), quadratic, budget=5, seed=0, candidate_grid=grid)

    def test_surrogate_fit_failure_falls_back_to_random(self, monkeypatch):
        from tlbo.errors import FitError

        def broken_fit(*args, **kwargs):
            raise FitError("engineered failure")

        monkeypatch.setattr(bo.gp, "fit", broken_fit)
        result = run(one_d_space(), quadratic, policy="igp", budget=6, seed=1)
        assert len(result.history) == 6
        # with no surrogate available, every suggestion matches the random policy
        assert [r["fallback"] for r in result.records] == [False] * 3 + [True] * 3
        monkeypatch.undo()
        reference = run(one_d_space(), quadratic, policy="random", budget=6, seed=1)
        np.testing.assert_array_equal(result.history.ys(), reference.history.ys())
        assert not any(r["fallback"] for r in reference.records)


class TestTransferRun:
    def _sources(self, seed=0):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(size=(30, 1))
        models = tuple(
            gp.fit(xs, gp.standardize((xs[:, 0] - c) ** 2).z, seed=i)
            for i, c in enumerate((0.25, 0.35))
        )
        return SourceEnsemble(models=models, task_ids=("near-a", "near-b"))

    def test_p_target_nondecreasing_end_to_end(self):
        result = run(
            one_d_space(), quadratic, sources=self._sources(), policy="transbo", budget=16, seed=1
        )
        assert all(r["p_target"] is None and r["w"] is None for r in result.records[:3])
        series = np.array([r["p_target"] for r in result.records[3:]])
        assert len(series) == 13  # budget minus the three seeded trials
        assert np.all(np.diff(series) >= 0)

    def test_weights_uniform_before_any_pairs(self):
        # constant objective: no strict pairs ever form
        result = run(
            one_d_space(),
            lambda config: 1.0,
            sources=self._sources(),
            policy="transbo",
            budget=5,
            seed=2,
        )
        for record in result.records[3:]:
            np.testing.assert_allclose(record["w"], [0.5, 0.5])
            assert record["p_source"] == 1.0 and record["p_target"] == 0.0

    def test_p_source_only_below_cv_threshold(self):
        result = run(
            one_d_space(), quadratic, sources=self._sources(), policy="transbo", budget=10, seed=3
        )
        for record in result.records[3:]:
            if record["iteration"] < 5:  # history smaller than the fold count
                assert record["p_target"] == 0.0

    def test_forced_target_vertex_matches_igp_bitwise(self):
        a = run(
            one_d_space(),
            quadratic,
            sources=self._sources(),
            policy="transbo",
            budget=10,
            seed=8,
            force_p=(0.0, 1.0),
        )
        b = run(one_d_space(), quadratic, policy="igp", budget=10, seed=8)
        assert [o.config for o in a.history.observations] == [
            o.config for o in b.history.observations
        ]
        np.testing.assert_array_equal(a.history.ys(), b.history.ys())

    def _observed_state(self, n=8, seed=4):
        """A transbo state after n uniform observations of the quadratic."""
        space = one_d_space()
        state = OptimizerState(
            space=space,
            history=TaskHistory(),
            sources=self._sources(),
            policy="transbo",
            budget=n + 1,
            seed=seed,
        )
        for config in sample_uniform(space, n, seed=seed):
            observe(state, config, quadratic(config))
        return state

    def _count_calls(self, monkeypatch, name):
        """Wrap ``transfer.<name>`` in a pass-through that records each call."""
        calls = []
        real = getattr(transfer, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(transfer, name, counting)
        return calls

    def test_pinned_p_target_skips_phase2(self, monkeypatch):
        state = self._observed_state()
        state.prev_p_target = 1.0

        def refuse(*args, **kwargs):
            raise AssertionError("phase 2 re-learned after p_target reached 1")

        monkeypatch.setattr(transfer, "learn_phase2_weights", refuse)
        solves = self._count_calls(monkeypatch, "minimize_on_simplex")
        for _ in range(2):
            solves.clear()
            config, w, p = suggest(state)
            assert p.values.tolist() == [0.0, 1.0]
            assert w is not None  # phase 1 still runs for the records
            assert len(solves) == 1  # the full-history phase-1 solve only
            observe(state, config, quadratic(config))
        assert state.prev_p_target == 1.0

    @pytest.mark.parametrize("prev_p_target", [0.0, 0.999])
    def test_phase2_learned_below_pin(self, monkeypatch, prev_p_target):
        state = self._observed_state()
        state.prev_p_target = prev_p_target
        phase2_calls = self._count_calls(monkeypatch, "learn_phase2_weights")
        solves = self._count_calls(monkeypatch, "minimize_on_simplex")
        _, _, p = suggest(state)
        assert len(phase2_calls) == 1
        # full-history phase 1, one cold phase-1 solve per fold, then phase 2
        assert len(solves) == 1 + state.n_cv + 1
        assert p.values[1] >= prev_p_target

    def test_source_means_predicted_once_per_suggestion(self, monkeypatch):
        state = self._observed_state(n=12)
        x, _ = state.encoded_history()
        history_rows = {row.tobytes() for row in x}
        queries = {i: [] for i in range(state.sources.k)}
        for i, model in enumerate(state.sources.models):

            def recording(q, i=i, real=model.predict):
                queries[i].append(np.array(q))
                return real(q)

            monkeypatch.setattr(model, "predict", recording)
        phase2_calls = self._count_calls(monkeypatch, "assemble_phase2_matrix")
        suggest(state)
        assert len(phase2_calls) == 1  # below the pin, with every fold non-empty
        for calls in queries.values():
            at_history = [q for q in calls if all(row.tobytes() in history_rows for row in q)]
            assert len(at_history) == 1
            np.testing.assert_array_equal(at_history[0], x)

    @pytest.mark.parametrize("n, seed", [(4, 4), (8, 5), (12, 6)])
    def test_pinned_shortcut_matches_full_phase2_bitwise(self, n, seed):
        state = self._observed_state(n=n, seed=seed)
        x, y = state.encoded_history()
        a = transfer.source_means(state.sources, x)
        p_raw = transfer.learn_phase2_weights(a, x, y, state.target_gp.params, n_cv=state.n_cv)
        full = apply_nondecreasing_prior(p_raw, 1.0)
        state.prev_p_target = 1.0
        _, _, p = suggest(state)
        assert p.values.tobytes() == full.values.tobytes()


class TestRunRecords:
    def test_jsonl_round_trip(self, tmp_path):
        result = run(one_d_space(), quadratic, policy="igp", budget=5, seed=0)
        path = tmp_path / "run.jsonl"
        result.to_jsonl(path)
        loaded = RunResult.from_jsonl(path)
        assert loaded.records == json.loads(json.dumps(result.records))
        np.testing.assert_array_equal(loaded.incumbents(), result.incumbents())

    def test_record_fields_present(self):
        result = run(one_d_space(), quadratic, policy="igp", budget=4, seed=0)
        for record in result.records:
            assert set(record) == {
                "iteration",
                "config",
                "y",
                "incumbent_y",
                "p_source",
                "p_target",
                "w",
                "failed",
                "error",
                "fallback",
                "suggest_wallclock_ms",
            }
            assert record["error"] is None and record["fallback"] is False
