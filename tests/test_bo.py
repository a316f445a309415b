"""Tests for EI acquisition and the sequential optimization loop."""

import contextlib
import functools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from scipy.optimize import minimize

from tlbo import bench, bo, gp, space as space_mod, transfer
from tlbo.bo import (
    OptimizerState,
    RunResult,
    expected_improvement,
    observe,
    run,
    suggest,
)
from tlbo.errors import FitError, ValidationError
from tlbo.oracles import ei_by_quadrature, reference_neg_lml_and_grad
from tlbo.ranking import SimplexWeights
from tlbo.space import ConfigSpace, ConfigTable, Configuration, ParamSpec, sample_uniform
from tlbo.transfer import SourceEnsemble


def one_d_space(low=0.0, high=1.0) -> ConfigSpace:
    return ConfigSpace([ParamSpec(name="x", kind="continuous", low=low, high=high)])


def quadratic(config: Configuration) -> float:
    return (config.values["x"] - 0.3) ** 2


def trials(result: RunResult) -> list[tuple[dict, float]]:
    """(config, y) of every trial, read from the records."""
    return [(r["config"], r["y"]) for r in result.records]


class TestExpectedImprovement:
    def test_zero_variance_is_plain_improvement(self):
        assert expected_improvement(np.array([0.3, 0.7]), np.zeros(2), 0.5).tolist() == [0.2, 0.0]

    def test_at_the_incumbent_mean(self):
        # EI(mean = y_best, sigma = 1) = 1 / sqrt(2 pi)
        assert expected_improvement(np.zeros(1), np.ones(1), 0.0)[0] == pytest.approx(0.3989422804014327)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            mean = float(rng.uniform(-2, 2))
            sigma = float(rng.uniform(0.05, 3.0))
            y_best = float(rng.uniform(-2, 2))
            quad = ei_by_quadrature(mean, sigma, y_best)
            ei = expected_improvement(np.array([mean]), np.array([sigma**2]), y_best)
            assert ei[0] == pytest.approx(quad, abs=1e-6)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            expected_improvement(np.zeros(2), np.array([1.0, -1e-3]), 0.0)

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


class TestObserve:
    def _state(self, policy="igp"):
        return OptimizerState(
            space=one_d_space(),
            sources=SourceEnsemble(models=()),
            policy=policy,
            seed=0,
        )

    def test_first_observation_records_no_weights(self):
        state = self._state()
        assert state.x.shape == (0, 1) and state.y.shape == (0,)
        assert observe(state, Configuration({"x": 0.5}), 1.0) is state
        assert state.y.size == 1

    def test_repeated_config_kept(self):
        state = self._state()
        observe(state, Configuration({"x": 0.5}), 1.0)
        observe(state, Configuration({"x": 0.5}), 2.0)
        assert state.y.tolist() == [1.0, 2.0]  # noisy objectives are not deduplicated

    def test_arrays_hold_the_encoded_observations(self):
        space = ConfigSpace(
            [
                ParamSpec(name="x", kind="continuous", low=-2.0, high=3.0),
                ParamSpec(name="lr", kind="continuous-log", low=1e-4, high=1.0),
                ParamSpec(name="n", kind="integer", low=1, high=9),
                ParamSpec(name="c", kind="categorical", categories=("a", "b", "c")),
            ]
        )
        state = OptimizerState(space=space, sources=SourceEnsemble(models=()), policy="igp", seed=0)
        configs = sample_uniform(space, 7, seed=2)
        ys = np.random.default_rng(0).normal(size=7)
        for n, (config, y) in enumerate(zip(configs, ys), start=1):
            observe(state, config, float(y))
            assert state.x.tobytes() == space_mod.encode_batch(space, configs[:n]).tobytes()
            assert state.y.tobytes() == ys[:n].tobytes()
            assert state.target_gp.train_inputs.tobytes() == state.x.tobytes()

    def test_target_gp_trained_on_standardized_history(self):
        state = self._state()
        for i, y in enumerate([5.0, 9.0, 2.0]):
            observe(state, Configuration({"x": 0.1 * (i + 1)}), y)
        assert abs(state.target_gp.train_targets.mean()) <= 1e-9

    def test_nonfinite_y_rejected(self):
        state = self._state()
        with pytest.raises(ValidationError):
            observe(state, Configuration({"x": 0.5}), float("nan"))

    @pytest.mark.parametrize("y", [True, 10**400], ids=["bool", "int-beyond-float"])
    def test_outcome_that_is_no_finite_number_rejected_before_it_is_recorded(self, y):
        state = self._state()
        with pytest.raises(ValidationError, match="finite number"):
            observe(state, Configuration({"x": 0.5}), y)
        assert state.y.size == 0

    @given(mask=st.lists(st.booleans(), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_gp_minimum_is_never_an_imputed_value(self, mask):
        state = self._state()
        configs = sample_uniform(one_d_space(), len(mask), seed=len(mask))
        for config, failed in zip(configs, mask):
            observe(state, config, None if failed else quadratic(config))
            if state.failed.all():
                assert state.target_gp is None  # no success yet: nothing to train on
                continue
            z = state.target_gp.train_targets
            assert z.size == state.y.size
            if state.failed.any():
                assert z[state.failed].min() > z.min()


class TestSuggest:
    def test_tabular_single_remaining_candidate(self):
        space = one_d_space()
        grid = ConfigTable.from_configs(space, [Configuration({"x": v}) for v in (0.1, 0.4, 0.6, 0.9)])
        for policy in ("transbo", "igp", "random"):
            result = run(
                space,
                quadratic,
                policy=policy,
                budget=4,
                seed=3,
                candidate_grid=grid,
            )
            seen = {config["x"] for config, _ in trials(result)}
            assert seen == {0.1, 0.4, 0.6, 0.9}  # the last suggestion is forced

    def test_requires_initial_design(self):
        state = OptimizerState(
            space=one_d_space(),
            sources=SourceEnsemble(models=()),
            policy="igp",
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
                sources=SourceEnsemble(models=()),
                policy="igp",
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
                sources=SourceEnsemble(models=()),
                policy=policy,
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
        assert trials(a) == trials(b)


def _two_d_sources() -> SourceEnsemble:
    """One source GP on 2-D inputs, for a space that encodes to another dimension."""
    x = np.random.default_rng(0).uniform(size=(6, 2))
    return SourceEnsemble(models=(gp.fit(x, gp.standardize(x.sum(axis=1)), seed=0),))


class TestRun:
    def test_empty_candidate_pool_rejected_before_any_trial(self):
        def objective(config):
            raise AssertionError("a trial ran despite an empty candidate pool")

        with pytest.raises(ValidationError):
            run(one_d_space(), objective, policy="igp", budget=5, seed=0, n_candidates=0)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"policy": "tranbo"}, "unknown policy 'tranbo'"),
            ({"seed": -1}, "seed must be non-negative"),
            ({"n_cv": 1}, "at least 2 folds"),
            ({"n_candidates": 0}, "at least one candidate"),
            ({"policy": "igp", "force_p": (0.0, 1.0)}, "transbo policy only"),
            ({"force_p": (0.2, 0.3, 0.5)}, "two weights"),
            ({"force_p": (0.5, 0.5)}, "there are none"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"n_cv": 2.5}, "n_cv must be an integer"),
            ({"n_candidates": 50.0}, "n_candidates must be an integer"),
            ({"budget": 7.5}, "budget must be an integer"),
            ({"budget": True}, "budget must be an integer"),
            ({"sources": _two_d_sources()}, "space's 1-D encoded inputs"),
        ],
    )
    def test_state_rejects_bad_setting_before_any_trial(self, setting, message):
        # A budget is run's own setting; the others are the state's. A source
        # of another dimension once failed at the first transbo suggestion.
        calls = []

        def objective(config):
            calls.append(config)
            return quadratic(config)

        settings = {"sources": None, "policy": "transbo", "seed": 0, **setting}
        if "budget" not in setting:
            with pytest.raises(ValidationError, match=message):
                OptimizerState(space=one_d_space(), **settings)
        with pytest.raises(ValidationError, match=message):
            run(one_d_space(), objective, **{"budget": 6, **settings})
        assert calls == []

    def test_state_converts_force_p_and_absent_sources(self):
        x = np.linspace(0.0, 1.0, 5)[:, None]
        source = gp.fit(x, gp.standardize((x[:, 0] - 0.3) ** 2), seed=0)
        for sources, force_p in ((None, (0.0, 1.0)), (SourceEnsemble(models=(source,)), (0.5, 0.5))):
            state = OptimizerState(one_d_space(), sources, "transbo", seed=0, n_candidates=64, force_p=force_p)
            assert isinstance(state.sources, SourceEnsemble) and isinstance(state.force_p, SimplexWeights)
            for v in (0.1, 0.5, 0.9):
                observe(state, Configuration({"x": v}), quadratic(Configuration({"x": v})))
            _, decided = suggest(state)
            assert [decided["p_source"], decided["p_target"]] == list(force_p)

    @pytest.mark.parametrize(
        "policy, force_p",
        [
            ("transbo", (0.7, 0.7)),
            ("transbo", (math.nan, 1.0)),
            ("transbo", (0.2, 0.3, 0.5)),
            ("igp", (0.0, 1.0)),
            ("random", (0.0, 1.0)),
            ("transbo", (0.5, 0.5)),  # no sources to weigh
        ],
    )
    def test_bad_force_p_rejected_before_any_trial(self, policy, force_p):
        calls = []

        def objective(config):
            calls.append(config)
            return quadratic(config)

        with pytest.raises(ValidationError, match="force_p|weights"):
            run(one_d_space(), objective, policy=policy, budget=6, seed=0, force_p=force_p)
        assert calls == []

    @pytest.mark.parametrize("policy", bo.POLICIES)
    def test_grid_not_a_table_of_the_space_rejected_before_any_evaluation(self, policy):
        calls = []

        def objective(config):
            calls.append(config)
            return quadratic(config)

        configs = [Configuration({"x": v}) for v in (0.1, 0.5, 0.9, 0.3)]
        for grid in (configs, ConfigTable.from_configs(one_d_space(0.0, 2.0), configs)):
            with pytest.raises(ValidationError, match="must be a ConfigTable of the run's space"):
                run(one_d_space(), objective, policy=policy, budget=4, seed=0, candidate_grid=grid)
        assert calls == []

    def test_table_of_another_space_rejected(self):
        table = ConfigTable.from_configs(one_d_space(0.0, 2.0), [Configuration({"x": 0.5})])
        with pytest.raises(ValidationError, match="run's space"):
            OptimizerState(space=one_d_space(), sources=SourceEnsemble(models=()), policy="igp", seed=0, grid=table)

    def test_exhausted_grid_rejected(self):
        configs = [Configuration({"x": v}) for v in (0.1, 0.4, 0.6)]
        state = OptimizerState(
            space=one_d_space(),
            sources=SourceEnsemble(models=()),
            policy="igp",
            seed=0,
            grid=ConfigTable.from_configs(one_d_space(), configs),
        )
        for config in configs[:2]:
            observe(state, config, quadratic(config))
        assert state.unused.tolist() == [False, False, True]
        observe(state, configs[2], quadratic(configs[2]))
        with pytest.raises(ValidationError, match="no unevaluated rows remain"):
            suggest(state)

    def test_budget_three_is_pure_initialization(self):
        result = run(one_d_space(), quadratic, policy="transbo", budget=3, seed=2)
        assert len(result.records) == 3
        assert all(r["p_target"] is None for r in result.records)

    def test_bitwise_deterministic(self):
        kwargs = dict(policy="igp", budget=7, seed=11)
        a = run(one_d_space(), quadratic, **kwargs)
        b = run(one_d_space(), quadratic, **kwargs)
        assert trials(a) == trials(b)

    def test_random_tabular_evaluates_distinct_rows(self):
        space = one_d_space()
        configs = [Configuration({"x": v}) for v in np.linspace(0.0, 1.0, 1000)]
        lookup = {bo._config_key(c): quadratic(c) for c in configs}
        result = run(
            space,
            lambda c: lookup[bo._config_key(c)],
            policy="random",
            budget=50,
            seed=9,
            candidate_grid=ConfigTable.from_configs(space, configs),
        )
        keys = {bo._config_key(Configuration(config)) for config, _ in trials(result)}
        assert len(keys) == 50

    def test_incumbent_nonincreasing_all_policies(self):
        for policy in ("transbo", "igp", "random"):
            result = run(one_d_space(), quadratic, policy=policy, budget=10, seed=4)
            assert np.all(np.diff(result.incumbents()) <= 0)

    def test_failed_evaluations_imputed_and_flagged(self):
        # A raise, or a return that is no finite number (observe would reject
        # it), fails the trial; float("1.5") and float(True) once passed as y.
        def crash():
            raise RuntimeError("evaluation crashed")

        for fifth, error in (
            (crash, "RuntimeError: evaluation crashed"),
            (lambda: "1.5", "ValueError: objective returned '1.5', not a finite number"),
            (lambda: True, "ValueError: objective returned True, not a finite number"),
            (lambda: math.nan, "ValueError: objective returned nan, not a finite number"),
        ):
            calls = {"n": 0}

            def flaky(config):
                calls["n"] += 1
                return fifth() if calls["n"] == 5 else quadratic(config)

            result = run(one_d_space(), flaky, policy="igp", budget=8, seed=6)
            assert len(result.records) == 8
            failed = [r for r in result.records if r["failed"]]
            assert len(failed) == 1
            prior_ys = [r["y"] for r in result.records[:4]]
            expected = max(prior_ys) + np.std(prior_ys)
            assert failed[0]["y"] == pytest.approx(expected)
            assert failed[0]["error"] == error

    def test_failed_first_trial_never_becomes_the_incumbent(self):
        calls = {"n": 0}

        def crash_first(config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("evaluation crashed")
            return quadratic(config) + 5.0

        result = run(one_d_space(), crash_first, policy="igp", budget=6, seed=6)
        ys = [r["y"] for r in result.records]
        # Imputed at the first success: its value plus one unit, not 0.0.
        assert ys[0] == ys[1] + 1.0
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
        grid = ConfigTable.from_configs(one_d_space(), [Configuration({"x": 0.5})])
        with pytest.raises(ValidationError, match="budget exceeds"):
            run(one_d_space(), quadratic, budget=5, seed=0, candidate_grid=grid)

    def test_surrogate_fit_failure_falls_back_to_random(self, monkeypatch):
        from tlbo.errors import FitError

        def broken_fit(*args, **kwargs):
            raise FitError("engineered failure")

        monkeypatch.setattr(bo.gp, "fit", broken_fit)
        result = run(one_d_space(), quadratic, policy="igp", budget=6, seed=1)
        assert len(result.records) == 6
        # with no surrogate available, every suggestion matches the random policy
        assert [r["fallback"] for r in result.records] == [False] * 3 + [True] * 3
        monkeypatch.undo()
        reference = run(one_d_space(), quadratic, policy="random", budget=6, seed=1)
        assert [y for _, y in trials(result)] == [y for _, y in trials(reference)]
        assert not any(r["fallback"] for r in reference.records)


class TestTransferRun:
    def _sources(self, seed=0):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(size=(30, 1))
        models = tuple(
            gp.fit(xs, gp.standardize((xs[:, 0] - c) ** 2), seed=i)
            for i, c in enumerate((0.25, 0.35))
        )
        return SourceEnsemble(models=models)

    def test_p_target_nondecreasing_end_to_end(self):
        result = run(
            one_d_space(), quadratic, sources=self._sources(), policy="transbo", budget=16, seed=1
        )
        assert all(r["p_target"] is None and r["w"] is None for r in result.records[:3])
        series = np.array([r["p_target"] for r in result.records[3:]])
        assert len(series) == 13  # budget minus the three seeded trials
        assert np.all(np.diff(series) >= 0)

    def test_fit_failure_falls_back_once_and_keeps_the_prior(self, monkeypatch):
        # The target fit in trial 7's observe fails: trial 8 is a random
        # fallback without weights, and trial 9's p_target starts from the
        # largest one learned before the failure (phase 2 alone learns ~0.32
        # there, below trial 7's ~0.45).
        sources = self._sources()
        fits, real_fit = [], gp.fit

        def failing_once(*args, **kwargs):
            fits.append(1)
            if len(fits) == 8:
                raise FitError("engineered failure")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(gp, "fit", failing_once)
        wiggly = lambda config: quadratic(config) + 0.02 * math.sin(40.0 * config.values["x"])
        records = run(one_d_space(), wiggly, sources=sources, policy="transbo", budget=12, seed=2).records
        assert [r["fallback"] for r in records] == [False] * 8 + [True] + [False] * 3
        assert (records[8]["w"], records[8]["p_source"], records[8]["p_target"]) == (None, None, None)
        assert 0.0 < records[7]["p_target"] < 1.0
        assert records[9]["p_target"] >= records[7]["p_target"]
        learned = [r["p_target"] for r in records[3:] if r["p_target"] is not None]
        assert len(learned) == 8 and np.all(np.diff(learned) >= 0)

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
        assert trials(a) == trials(b)

    @pytest.mark.parametrize("policy", ["igp", "transbo"])
    def test_each_trial_encoded_once(self, monkeypatch, policy):
        """``observe`` encodes only the new configuration; ``suggest`` reads
        the state's arrays and encodes nothing."""
        rows, in_suggest = [], []
        suggesting = False
        real_encode, real_suggest = space_mod.encode_batch, bo.suggest

        def counting_encode(space, configs):
            rows.append(len(configs))
            in_suggest.append(suggesting)
            return real_encode(space, configs)

        def flagged_suggest(state):
            nonlocal suggesting
            suggesting = True
            try:
                return real_suggest(state)
            finally:
                suggesting = False

        monkeypatch.setattr(space_mod, "encode_batch", counting_encode)
        monkeypatch.setattr(bo, "suggest", flagged_suggest)
        run(one_d_space(), quadratic, sources=self._sources(), policy=policy, budget=10, seed=2)
        assert rows == [1] * 10
        assert not any(in_suggest)

    def _observed_state(self, n=8, seed=4):
        """A transbo state after n uniform observations of the quadratic."""
        space = one_d_space()
        state = OptimizerState(
            space=space,
            sources=self._sources(),
            policy="transbo",
            seed=seed,
        )
        for config in sample_uniform(space, n, seed=seed):
            observe(state, config, quadratic(config))
        return state

    def _count_calls(self, monkeypatch, name):
        """Wrap ``transfer.<name>`` in a pass-through that records each call's result."""
        calls = []
        real = getattr(transfer, name)

        def counting(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

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
            config, decided = suggest(state)
            assert [decided["p_source"], decided["p_target"]] == [0.0, 1.0]
            assert decided["w"] is not None  # phase 1 still runs for the records
            assert len(solves) == 1  # the full-history phase-1 solve only
            observe(state, config, quadratic(config))
        assert state.prev_p_target == 1.0

    @pytest.mark.parametrize("prev_p_target", [0.0, 0.999])
    def test_phase2_learned_below_pin(self, monkeypatch, prev_p_target):
        state = self._observed_state(n=8, seed=6)  # phase 2 learns p_target ~0.42 here
        state.prev_p_target = prev_p_target
        phase2_calls = self._count_calls(monkeypatch, "learn_phase2_weights")
        solves = self._count_calls(monkeypatch, "minimize_on_simplex")
        _, decided = suggest(state)
        assert len(phase2_calls) == 1
        # full-history phase 1, one cold phase-1 solve per fold, then phase 2
        assert len(solves) == 1 + state.n_cv + 1
        # The non-decreasing prior keeps a larger learned target weight (prev
        # 0.0) and lifts a smaller one to the previous value (prev 0.999).
        learned = float(phase2_calls[0].values[1])
        assert 0.0 < learned < 0.999
        t = max(learned, prev_p_target)
        assert (decided["p_source"], decided["p_target"]) == (1.0 - t, t)
        assert state.prev_p_target == t

    def test_source_means_predicted_once_per_suggestion(self, monkeypatch):
        state = self._observed_state(n=12)
        x = state.x
        history_rows = {row.tobytes() for row in x}
        queries = {i: [] for i in range(len(state.sources.models))}
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
        x, y = state.x, state.y
        a = transfer.source_means(state.sources, x)
        learned = transfer.learn_phase2_weights(a, x, y, state.target_gp.params, n_cv=state.n_cv)
        t = max(float(learned.values[1]), 1.0)
        state.prev_p_target = 1.0
        _, decided = suggest(state)
        full = np.array([1.0 - t, t])
        assert np.array([decided["p_source"], decided["p_target"]]).tobytes() == full.tobytes()


class TestRunRecords:
    def test_fit_nfev_repeats_and_counts_the_refit(self, monkeypatch):
        space = ConfigSpace([ParamSpec(name=n, kind="continuous", low=0.0, high=1.0) for n in "ab"])

        def objective(config):
            return (config.values["a"] - 0.3) ** 2 + config.values["b"]

        result = run(space, objective, policy="igp", budget=8, seed=2)
        nfev = [r["fit_nfev"] for r in result.records]
        assert nfev == [r["fit_nfev"] for r in run(space, objective, policy="igp", budget=8, seed=2).records]
        assert nfev[0] == 0 and min(nfev[1:]) > 0  # one point keeps the defaults

        # Count likelihood calls with the reference formula in place.
        calls = []
        real_fit = gp.fit

        def counting_fit(*args, **kwargs):
            calls.append(0)
            return real_fit(*args, **kwargs)

        def counting_reference(theta, *args):
            calls[-1] += 1
            return reference_neg_lml_and_grad(theta, *args)

        monkeypatch.setattr(gp, "fit", counting_fit)
        monkeypatch.setattr(gp, "_neg_lml_and_grad", counting_reference)
        reference = run(space, objective, policy="igp", budget=8, seed=2)
        assert nfev == calls
        assert [r["fit_nfev"] for r in reference.records] == nfev
        assert trials(reference) == trials(result)

    def test_fit_start_repeats_and_matches_a_replay_of_the_starts(self, monkeypatch):
        space = ConfigSpace([ParamSpec(name=n, kind="continuous", low=0.0, high=1.0) for n in "ab"])

        def objective(config):
            return math.sin(7.0 * config.values["a"]) + (config.values["b"] - 0.6) ** 2

        fits = []
        real_fit = gp.fit

        def recording_fit(x, z, seed=0):
            fits.append((x.copy(), z.copy(), seed))
            return real_fit(x, z, seed=seed)

        monkeypatch.setattr(gp, "fit", recording_fit)
        result = run(space, objective, policy="igp", budget=12, seed=4)
        starts = [r["fit_start"] for r in result.records]
        again = run(space, objective, policy="igp", budget=12, seed=4)
        assert starts == [r["fit_start"] for r in again.records]
        assert starts[0] is None  # one point keeps the defaults

        # Replay each refit with scipy's public minimize from the same starts:
        # the defaults, then the seeded uniform draws in the log-bounds.
        replayed = []
        for x, z, seed in fits[: len(starts)]:
            if x.shape[0] < gp.MIN_FIT_POINTS:
                replayed.append(None)
                continue
            args = gp._lml_args(x, z)
            lows, highs = gp._log_bounds(x.shape[1])
            rng = np.random.default_rng(seed)
            thetas = [gp.KernelParams.defaults(x.shape[1]).to_log_vector()]
            thetas += [rng.uniform(lows, highs) for _ in range(gp.N_RESTARTS)]
            best, winner = gp._neg_lml_and_grad(thetas[0], *args)[0], None
            for i, theta0 in enumerate(thetas):
                res = minimize(
                    gp._neg_lml_and_grad, theta0, args=args, jac=True, method="L-BFGS-B",
                    bounds=list(zip(lows, highs)),
                )
                if np.all(np.isfinite(res.x)) and res.fun < best:
                    best, winner = res.fun, i
            replayed.append(winner)
        assert starts == replayed
        assert any(s is not None for s in starts)

    def test_random_run_fits_no_gp(self, monkeypatch):
        # No random suggestion reads a surrogate, so no observe fits one; the
        # records are those of a run with gp.fit untouched, fit fields empty.
        reference = run(one_d_space(), quadratic, policy="random", budget=8, seed=5)
        calls = []
        real_fit = gp.fit

        def counting_fit(*args, **kwargs):
            calls.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(gp, "fit", counting_fit)
        result = run(one_d_space(), quadratic, policy="random", budget=8, seed=5)
        assert calls == []
        drop = lambda r: {k: v for k, v in r.items() if k != "suggest_wallclock_ms"}
        assert [drop(r) for r in result.records] == [drop(r) for r in reference.records]
        for record in result.records:
            assert (record["fit_nfev"], record["fit_start"], record["fit_jitter"]) == (0, None, None)
            assert record["fallback"] is False

    def test_fit_jitter_is_the_level_the_cholesky_settled_on(self, monkeypatch):
        result = run(one_d_space(), quadratic, policy="igp", budget=5, seed=0)
        assert [r["fit_jitter"] for r in result.records] == [0.0] * 5

        # Every factorization's first attempt fails and its second succeeds.
        real_cholesky = np.linalg.cholesky
        attempts = []

        def failing_first(a):
            attempts.append(a)
            if len(attempts) % 2 == 1:
                raise np.linalg.LinAlgError("engineered failure")
            return real_cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing_first)
        result = run(one_d_space(), quadratic, policy="igp", budget=5, seed=0)
        assert [r["fit_jitter"] for r in result.records] == [1e-10] * 5
        assert len(attempts) == 10

        def broken_fit(*args, **kwargs):
            raise FitError("engineered failure")

        monkeypatch.setattr(gp, "fit", broken_fit)
        result = run(one_d_space(), quadratic, policy="igp", budget=5, seed=0)
        assert [r["fit_jitter"] for r in result.records] == [None] * 5

    def test_jsonl_round_trip(self, tmp_path):
        result = run(one_d_space(), quadratic, policy="igp", budget=5, seed=0)
        path = tmp_path / "run.jsonl"
        result.to_jsonl(path)
        loaded = RunResult.from_jsonl(path)
        assert loaded.records == json.loads(json.dumps(result.records))
        np.testing.assert_array_equal(loaded.incumbents(), result.incumbents())

    def test_record_fields_present(self):
        # Every policy's records, the merged suggestion fields included, hold
        # exactly these keys; transbo with one source.
        x = np.linspace(0.0, 1.0, 5)[:, None]
        sources = SourceEnsemble(models=(gp.fit(x, gp.standardize((x[:, 0] - 0.3) ** 2), seed=0),))
        records = [
            record
            for policy in bo.POLICIES
            for record in run(one_d_space(), quadratic, sources=sources if policy == "transbo" else None,
                              policy=policy, budget=4, seed=0).records
        ]
        assert [r["iteration"] for r in records] == [0, 1, 2, 3] * 3
        assert records[3]["p_target"] is not None and records[3]["w"] == [1.0]
        for record in records:
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
                "fit_nfev",
                "fit_start",
                "fit_jitter",
            }
            assert record["error"] is None and record["fallback"] is False


def _mixed_space() -> ConfigSpace:
    return ConfigSpace([ParamSpec("x", "continuous", 0.0, 1.0), ParamSpec("c", "categorical", categories=("a", "b"))])


@functools.cache
def _machine_sources() -> SourceEnsemble:
    """Two source GPs on ``_mixed_space``, fitted once for every machine run."""
    configs = sample_uniform(_mixed_space(), 8, seed=0)
    x = space_mod.encode_batch(_mixed_space(), configs)
    ys = [np.array([quadratic(c) + (c.values["c"] == "b") for c in configs]), x[:, 0]]
    return SourceEnsemble(models=tuple(gp.fit(x, gp.standardize(y), seed=k) for k, y in enumerate(ys)))


_real_gp_fit = gp.fit


class _Driver:
    """One ``OptimizerState`` and a switch that makes its next ``gp.fit``
    raise ``FitError``; ``step`` runs one logged step of the machine below."""

    def __init__(self, policy: str, grid: ConfigTable | None):
        sources = _machine_sources() if policy == "transbo" else SourceEnsemble(models=())
        self.state = OptimizerState(_mixed_space(), sources, policy, seed=3, n_candidates=64, grid=grid)
        self.break_next_fit = False
        self.last_fit_failed = False

    def _fit(self, *args, **kwargs):
        self.last_fit_failed = True
        if self.break_next_fit:
            self.break_next_fit = False
            raise FitError("engineered failure")
        model = _real_gp_fit(*args, **kwargs)
        self.last_fit_failed = False
        return model

    def step(self, step: tuple):
        """``("observe", config, y)``, ``("break",)`` or ``("suggest",)``; a
        suggestion returns ``(config values, decided fields)`` or its error message."""
        if step[0] == "observe":
            with mock.patch.object(gp, "fit", self._fit):
                observe(self.state, step[1], step[2])
        elif step[0] == "break":
            self.break_next_fit = True
        else:
            try:
                config, decided = suggest(self.state)
            except ValidationError as exc:
                return str(exc)
            return config.values, decided


_OUTCOMES = st.one_of(st.none(), st.just(1.0), st.integers(-40, 40).map(lambda v: v / 4))


class _OptimizerStateMachine(RuleBasedStateMachine):
    """Observations (successes, failures, repeated and off-grid configurations,
    constant y), broken fits and suggestions on one ``OptimizerState``,
    checked against the trials it was given after every step; the steps are
    replayed on a fresh state at the end. Subclasses set ``grid``."""

    grid: ConfigTable | None = None

    def __init__(self):
        super().__init__()
        self.driver = None
        self.trials, self.log, self.suggestions = [], [], []
        self.p_target = self.prev_p_target = 0.0

    def _step(self, *step):
        self.log.append(step)
        if step[0] == "observe":
            self.trials.append(step[1:])
        out = self.driver.step(step)
        if step[0] == "suggest":
            self.suggestions.append(out)
        return out

    @initialize(policy=st.sampled_from(bo.POLICIES), ys=st.lists(_OUTCOMES, min_size=bo.N_INIT, max_size=bo.N_INIT))
    def start(self, policy, ys):
        """A fresh state and ``N_INIT`` observations of new configurations."""
        self.policy = policy
        self.driver = _Driver(policy, self.grid)
        for i, y in enumerate(ys):
            self.observe_new(i, y)

    @precondition(lambda self: self.grid is None or self.driver.state.unused.any())
    @rule(i=st.integers(0, 10**6), y=_OUTCOMES)
    def observe_new(self, i, y):
        if self.grid is None:
            config = Configuration({"x": (i % 997) / 997, "c": "ab"[i % 2]})
        else:
            remaining = np.flatnonzero(self.driver.state.unused)
            config = self.grid.config(int(remaining[i % remaining.size]))
        self._step("observe", config, y)

    @precondition(lambda self: self.trials)
    @rule(i=st.integers(0, 10**6), y=_OUTCOMES)
    def observe_repeat(self, i, y):
        self._step("observe", self.trials[i % len(self.trials)][0], y)

    @rule(c=st.sampled_from("ab"), y=_OUTCOMES)
    def observe_off_grid(self, c, y):
        self._step("observe", Configuration({"x": 0.1, "c": c}), y)

    @rule()
    def break_next_fit(self):
        self._step("break")

    @rule()
    def suggest_next(self):
        state = self.driver.state
        out = self._step("suggest")
        if self.grid is not None and not state.unused.any():
            assert "no unevaluated rows remain" in out
        else:
            values, decided = out
            if self.grid is not None:
                assert state.unused[self.grid.index(Configuration(values))]
            assert decided["fallback"] == (self.policy != "random" and state.target_gp is None)
            p, w = [decided["p_source"], decided["p_target"]], decided["w"]
            assert (p[1] is not None) == (self.policy == "transbo" and state.target_gp is not None)
            if p[1] is not None:
                assert len(w) == 2
                for weights in (p, w):
                    assert min(weights) >= 0 and abs(sum(weights) - 1) <= 1e-8
                assert p[1] >= self.p_target
                self.p_target = p[1]

    @invariant()
    def state_matches_the_trials(self):
        if self.driver is None:
            return
        state, n = self.driver.state, len(self.trials)
        assert state.x.shape == (n, state.space.encoded_dim) and state.y.shape == (n,) and state.failed.shape == (n,)
        assert state.failed.tolist() == [y is None for _, y in self.trials]
        successes = [y for _, y in self.trials if y is not None]
        assert state.y[~state.failed].tolist() == successes
        assert (state.y[state.failed] == 0.0).all() if not successes else (state.y[state.failed] > min(successes)).all()
        assert (state.target_gp is None) == (
            self.policy == "random" or state.failed.all() or self.driver.last_fit_failed
        )
        if state.target_gp is not None:
            z = state.target_gp.train_targets
            assert z.min() == z[~state.failed].min() and (z[state.failed] > z.min()).all()
        assert state.prev_p_target >= self.prev_p_target
        self.prev_p_target = state.prev_p_target
        if self.grid is None:
            assert state.unused is None
        else:
            unused = np.ones(len(self.grid), dtype=bool)
            for config, _ in self.trials:
                with contextlib.suppress(KeyError):  # an off-grid configuration
                    unused[self.grid.index(config)] = False
            assert state.unused.tolist() == unused.tolist()

    def teardown(self):
        if self.driver is not None:
            replay = _Driver(self.policy, self.grid)
            outs = [replay.step(step) for step in self.log]
            assert [out for step, out in zip(self.log, outs) if step[0] == "suggest"] == self.suggestions


class _TabularMachine(_OptimizerStateMachine):
    grid = ConfigTable.from_configs(
        _mixed_space(), [Configuration({"x": x, "c": c}) for x in (0.0, 0.5, 1.0) for c in "ab"]
    )


_MACHINE_SETTINGS = settings(max_examples=25, stateful_step_count=15, deadline=None)
TestOptimizerStateOnAGrid = _TabularMachine.TestCase
TestOptimizerStateOnAGrid.settings = _MACHINE_SETTINGS
TestOptimizerStateOnASpace = _OptimizerStateMachine.TestCase
TestOptimizerStateOnASpace.settings = _MACHINE_SETTINGS
