"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The transfer study and scalability checks run real optimization and
take a few minutes combined.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tlbo import bench, bo, gp, oracles, transfer
from tlbo.bench import ExperimentResult, SyntheticFamilySpec, TaskMeta, adtm
from tlbo.cli import main as cli_main
from tlbo.space import ConfigSpace, Configuration, ParamSpec
from tlbo.transfer import SourceEnsemble, assemble_phase2_matrix, source_means

# Frozen study configuration: validated once by calibration runs, then fixed.
FAMILY_SEED = 3
BASE_SEED = 0
N_SEEDS = 20
BUDGET = 30


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    print(f"\nACCEPTANCE PASS: {name}")


class TestGradientFidelity:
    def test_gradient_matches_finite_differences(self):
        with criterion("gradient fidelity: 50 random instances, rel err <= 1e-5"):
            oracles.check_ranking_gradient_fd()


class TestSimplexSolverOracle:
    def test_solver_matches_brute_force_grid(self):
        with criterion("simplex solver: 30 instances within 1e-3 of the 0.01-grid optimum"):
            oracles.check_simplex_solver_vs_grid()


class TestExpectedImprovementCorrectness:
    def test_closed_form_against_quadrature(self):
        with criterion("EI: closed form within 1e-6 of quadrature on 100 triples"):
            oracles.check_expected_improvement_quadrature()


class TestAverageRankTieRule:
    def test_worked_example(self):
        with criterion("average rank: [0.2, 0.3, 0.3, 0.45] -> [1, 2.5, 2.5, 4]"):
            oracles.check_average_rank_ties()


class TestCombinedPredictionRule:
    def test_hand_values_and_vertex_passthrough(self):
        with criterion("combined prediction: exact hand values, bitwise vertices"):
            oracles.check_combined_prediction()


@pytest.fixture(scope="module")
def desk_study():
    """The frozen transfer study: related and adversarial Branin families."""
    tasks = bench.make_synthetic_family(
        SyntheticFamilySpec(base="branin", n_tasks=6, seed=FAMILY_SEED)
    )
    related = bench.run_static(
        tasks,
        ["transbo", "igp", "random"],
        budget=BUDGET,
        seeds=N_SEEDS,
        n_s=50,
        targets=[0],
        base_seed=BASE_SEED,
    )
    adversarial = bench.run_static(
        tasks,
        ["transbo"],
        budget=BUDGET,
        seeds=N_SEEDS,
        n_s=50,
        targets=[0],
        base_seed=BASE_SEED,
        flip_source_outputs=True,
    )
    target = tasks[0]

    def curves(result, method):
        return np.stack(
            [
                adtm(
                    [result.incumbent_curve(target.name, method, s, true_values=True)],
                    [target.y_min],
                    [target.y_max],
                )
                for s in result.seeds
            ]
        )

    return {
        "target": target,
        "related": related,
        "adversarial": adversarial,
        "transbo": curves(related, "transbo"),
        "igp": curves(related, "igp"),
        "random": curves(related, "random"),
        "transbo_adv": curves(adversarial, "transbo"),
    }


class TestDeskScaleTransferStudy:
    def test_transfer_beats_no_transfer_and_random(self, desk_study):
        with criterion(
            "desk-scale study: transbo median ADTM@15 < igp; mean ADTM@5 "
            ">= 30% below random; adversarial final <= 1.15x igp"
        ):
            med_tb = float(np.median(desk_study["transbo"][:, 14]))
            med_igp = float(np.median(desk_study["igp"][:, 14]))
            assert med_tb < med_igp, f"median ADTM@15 {med_tb} vs igp {med_igp}"

            mean_tb5 = float(desk_study["transbo"][:, 4].mean())
            mean_rnd5 = float(desk_study["random"][:, 4].mean())
            assert mean_tb5 <= 0.7 * mean_rnd5, f"ADTM@5 {mean_tb5} vs random {mean_rnd5}"

            adv_final = float(desk_study["transbo_adv"][:, -1].mean())
            igp_final = float(desk_study["igp"][:, -1].mean())
            assert adv_final <= 1.15 * igp_final, (
                f"adversarial final {adv_final} vs igp {igp_final}"
            )


class TestNondecreasingPriorAndInitialization:
    def test_trajectories_and_verbatim_initial_states(self, desk_study):
        with criterion(
            "non-decreasing prior: p_target never shrinks in any transfer run; "
            "w starts uniform without pairs; p starts [1, 0] below the CV threshold"
        ):
            # every transfer run of the study, related and adversarial
            for result in (desk_study["related"], desk_study["adversarial"]):
                for (task, method, seed), run_result in result.runs.items():
                    if method != "transbo":
                        continue
                    series = [
                        r["p_target"] for r in run_result.records if r["p_target"] is not None
                    ]
                    assert all(b >= a for a, b in zip(series, series[1:]))
                    # below the CV threshold (n_cv observations) p is [1, 0]
                    for record in run_result.records:
                        if record["p_target"] is not None and record["iteration"] < 5:
                            assert record["p_source"] == 1.0
                            assert record["p_target"] == 0.0

            # with a constant objective no pairs ever form: w stays uniform
            space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0.0, high=1.0)])
            rng = np.random.default_rng(0)
            xs = rng.uniform(size=(20, 1))
            sources = SourceEnsemble(
                models=tuple(
                    gp.fit(xs, gp.standardize(rng.normal(size=20)).z, seed=i) for i in range(3)
                )
            )
            flat = bo.run(
                space, lambda c: 1.0, sources=sources, policy="transbo", budget=6, seed=1
            )
            for record in flat.records[3:]:
                np.testing.assert_allclose(record["w"], [1 / 3] * 3)
                assert record["p_source"] == 1.0 and record["p_target"] == 0.0


class TestNegativeTransferLimit:
    def test_forced_target_vertex_equals_igp(self):
        with criterion(
            "negative-transfer limit: p = [0, 1] reproduces igp bitwise; K = 0 likewise"
        ):
            space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0.0, high=1.0)])
            objective = lambda c: (c.values["x"] - 0.3) ** 2
            rng = np.random.default_rng(5)
            xs = rng.uniform(size=(25, 1))
            sources = SourceEnsemble(
                models=tuple(
                    gp.fit(xs, gp.standardize(rng.normal(size=25)).z, seed=i) for i in range(2)
                )
            )
            for seed in (0, 3):
                forced = bo.run(
                    space,
                    objective,
                    sources=sources,
                    policy="transbo",
                    budget=12,
                    seed=seed,
                    force_p=(0.0, 1.0),
                )
                reference = bo.run(space, objective, policy="igp", budget=12, seed=seed)
                assert [o.config for o in forced.history.observations] == [
                    o.config for o in reference.history.observations
                ]
                np.testing.assert_array_equal(forced.history.ys(), reference.history.ys())

                no_sources = bo.run(
                    space, objective, sources=None, policy="transbo", budget=12, seed=seed
                )
                assert [o.config for o in no_sources.history.observations] == [
                    o.config for o in reference.history.observations
                ]
                np.testing.assert_array_equal(no_sources.history.ys(), reference.history.ys())


class TestCvAssembly:
    def test_holdout_structure_and_leak_flip(self, monkeypatch):
        with criterion(
            "CV assembly: held-out predictions never use fold-H(j) training data; "
            "a deliberate leak flips the check"
        ):
            rng = np.random.default_rng(5)
            n = 15
            x = rng.uniform(size=(n, 1))
            y = rng.normal(size=n)
            xs = rng.uniform(size=(20, 1))
            sources = SourceEnsemble(
                models=tuple(
                    gp.fit(xs, gp.standardize(rng.normal(size=20)).z, seed=i) for i in range(2)
                )
            )
            params = gp.KernelParams(
                lengthscales=np.array([0.2]), signal_variance=1.0, noise_variance=1e-8
            )
            a = source_means(sources, x)

            # structural: per fold, the training rows exclude the fold
            for train, held in transfer._cv_folds(n, 5):
                assert not np.any(train & held)
                assert np.all(train | held)

            honest = assemble_phase2_matrix(a, x, y, params, 5)
            z = gp.standardize(y).z
            honest_resid = np.abs(honest[:, 1] - z).max()
            assert honest_resid > 1e-2  # held-out: cannot interpolate rough data

            honest_folds = transfer._cv_folds
            monkeypatch.setattr(
                transfer,
                "_cv_folds",
                lambda n, n_cv: ((np.ones(n, dtype=bool), held) for _, held in honest_folds(n, n_cv)),
            )
            leaked = assemble_phase2_matrix(a, x, y, params, 5)
            leaked_resid = np.abs(leaked[:, 1] - z).max()
            assert leaked_resid < 1e-2  # leak detected: near-interpolation


class TestScalabilityInstrumentation:
    def test_suggestion_overhead(self, tmp_path):
        with criterion(
            "scalability: mean suggest wallclock at trial 75 (K=5) under 2 s; "
            "overhead CSV emitted; no cubic blow-up in K at fixed n"
        ):
            space = ConfigSpace(
                [
                    ParamSpec(name="x1", kind="continuous", low=0.0, high=1.0),
                    ParamSpec(name="x2", kind="continuous", low=0.0, high=1.0),
                ]
            )
            rng = np.random.default_rng(2)

            def make_sources(k):
                models = []
                for i in range(k):
                    xs = rng.uniform(size=(50, 2))
                    fs = ((xs - rng.uniform(0.2, 0.8, size=2)) ** 2).sum(axis=1)
                    models.append(gp.fit(xs, gp.standardize(fs).z, seed=i))
                return SourceEnsemble(models=tuple(models))

            objective = lambda c: (c.values["x1"] - 0.4) ** 2 + (c.values["x2"] - 0.6) ** 2
            result = bo.run(
                space,
                objective,
                sources=make_sources(5),
                policy="transbo",
                budget=75,
                seed=0,
            )
            walls = [r["suggest_wallclock_ms"] for r in result.records]
            assert float(np.mean(walls[-5:])) < 2000.0, f"late suggest wallclock {walls[-5:]} ms"
            # overhead grows with the number of observations
            assert float(np.median(walls[60:75])) > float(np.median(walls[5:20]))

            wrapped = ExperimentResult(
                protocol="static",
                budget=75,
                n_s=50,
                n_cv=5,
                methods=["transbo"],
                seeds=[0],
                tasks=[TaskMeta("scal", 0.0, 1.0)],
                runs={("scal", "transbo", 0): result},
            )
            files = bench.report(wrapped, tmp_path)
            overhead = tmp_path / "overhead.csv"
            assert str(overhead) in files and overhead.exists()
            assert len(overhead.read_text().strip().splitlines()) == 76

            # qualitative: doubling K must not cube the per-suggestion cost
            def suggest_time(sources):
                state = bo.OptimizerState(
                    space=space,
                    history=bo.TaskHistory(),
                    sources=sources,
                    policy="transbo",
                    budget=40,
                    seed=1,
                )
                for config in bench.space_mod.sample_uniform(space, 30, seed=3):
                    bo.observe(state, config, objective(config))
                times = []
                for _ in range(3):
                    state.prev_p_target = 0.0  # re-learn from scratch each call
                    t0 = time.perf_counter()
                    bo.suggest(state)
                    times.append(time.perf_counter() - t0)
                return float(np.median(times))

            t5 = suggest_time(make_sources(5))
            t10 = suggest_time(make_sources(10))
            assert t10 <= 8.0 * max(t5, 1e-3), f"K=10 took {t10:.3f}s vs K=5 {t5:.3f}s"


class TestDeterminism:
    def test_cli_rerun_is_byte_identical_modulo_wallclock(self, tmp_path):
        with criterion(
            "determinism: CLI re-run reproduces result records byte-identically "
            "(wallclock excluded)"
        ):
            cfg = {
                "protocol": "static",
                "tasks": {
                    "kind": "synthetic",
                    "family": {
                        "base": "branin",
                        "n_tasks": 3,
                        "translation_range": 1.5,
                        "scale_range": [0.9, 1.1],
                        "noise_scale": 0.01,
                        "seed": 6,
                    },
                },
                "methods": ["transbo", "random"],
                "budget": 8,
                "seeds": 2,
                "N_S": 20,
                "n_candidates": 500,
            }
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli_main(["run-static", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
            assert cli_main(["run-static", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0

            files1 = sorted((tmp_path / "r1" / "runs").glob("*.jsonl"))
            files2 = sorted((tmp_path / "r2" / "runs").glob("*.jsonl"))
            assert [f.name for f in files1] == [f.name for f in files2] and files1

            def normalized(path):
                lines = []
                for line in path.read_text().strip().splitlines():
                    record = json.loads(line)
                    record.pop("suggest_wallclock_ms", None)
                    lines.append(json.dumps(record, sort_keys=True))
                return "\n".join(lines).encode()

            for f1, f2 in zip(files1, files2):
                assert normalized(f1) == normalized(f2)
