"""Tests for benchmark tasks, metrics, protocols, and reporting."""

import dataclasses
import gc
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from tlbo import bench, bo, gp
from tlbo.bench import (
    ExperimentResult,
    SyntheticFamilySpec,
    TabularTask,
    adtm,
    average_rank,
    branin,
    build_static_sources,
    load_tabular,
    make_synthetic_family,
    report,
    run_dynamic,
    run_static,
    save_tabular,
    top_counts,
)
from tlbo.errors import ParseError, ValidationError
from tlbo.space import ConfigSpace, Configuration, ParamSpec, sample_uniform


def write_task_file(tmp_path, rows, name="toy"):
    data = {
        "name": name,
        "space": {"params": [{"name": "x", "kind": "continuous", "low": 0.0, "high": 1.0}]},
        "rows": rows,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def tiny_tabular(name, n=40, seed=0, shift=0.0):
    space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0.0, high=1.0)])
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=n)
    rows = [(Configuration({"x": float(v)}), float((v - 0.3 - shift) ** 2)) for v in xs]
    return TabularTask.from_rows(name, space, rows)


MALFORMED_SPACES = {
    "unhashable-category": {"params": [{"name": "c", "kind": "categorical", "categories": [[1, 2], "a"]}]},
    "entry-not-an-object": {"params": [1]},
    "text-bound": {"params": [{"name": "x", "kind": "continuous", "low": "a", "high": 1.0}]},
    "list-bound": {"params": [{"name": "x", "kind": "continuous", "low": [0], "high": 1.0}]},
    "params-not-a-list": {"params": 3},
    "number-categories": {"params": [{"name": "c", "kind": "categorical", "categories": 3}]},
    "text-categories": {"params": [{"name": "c", "kind": "categorical", "categories": "abc"}]},
    "number-name": {"params": [{"name": 5, "kind": "continuous", "low": 0.0, "high": 1.0}]},
}


# (outcome, whether a table accepts it): only a number, not a bool, whose
# float is finite; an int at or beyond 2**1024 has no float.
OUTCOMES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (v, True)),
    st.integers(-(2**1000), 2**1000).map(lambda v: (v, True)),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(lambda v: (np.float32(v), True)),
    st.integers(-(2**63), 2**63 - 1).map(lambda v: (np.int64(v), True)),
    st.integers(2**1024, 2**1100).map(lambda v: (v, False)),
    st.integers(-(2**1100), -(2**1024)).map(lambda v: (v, False)),
    st.sampled_from(
        [True, False, np.True_, math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(-math.inf)]
    ).map(lambda v: (v, False)),
)


class TestOutcomeCheck:
    @given(outcome=OUTCOMES)
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_tabular_raises_parse_error_naming_file_and_row(self, tmp_path, outcome):
        y, valid = outcome
        # JSON holds numpy scalars as the Python numbers they equal.
        y = y.item() if isinstance(y, np.generic) else y
        path = write_task_file(tmp_path, [{"config": {"x": 0.1}, "y": 0.2}, {"config": {"x": 0.5}, "y": y}])
        if valid:
            assert load_tabular(path).rows[1][1] == float(y)
        else:
            with pytest.raises(ParseError, match=re.escape(f"{path}: row 2: 'y' must be a finite number")):
                load_tabular(path)

    @given(outcome=OUTCOMES)
    @settings(max_examples=200, deadline=None)
    def test_from_rows_raises_validation_error_naming_row(self, outcome):
        y, valid = outcome
        space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0.0, high=1.0)])
        rows = [(Configuration({"x": 0.1}), 0.2), (Configuration({"x": 0.5}), y)]
        if valid:
            assert TabularTask.from_rows("t", space, rows).y[1] == float(y)
        else:
            with pytest.raises(ValidationError, match="tabular task 't': row 2: y must be a finite number"):
                TabularTask.from_rows("t", space, rows)


class TestLoadTabular:
    @pytest.mark.parametrize("space", MALFORMED_SPACES.values(), ids=MALFORMED_SPACES.keys())
    def test_malformed_space_raises_validation_and_parse_errors(self, tmp_path, space):
        with pytest.raises(ValidationError):
            bench.space_mod.space_from_dict(space)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": space, "rows": [{"config": {"x": 0.5}, "y": 0.1}]}))
        with pytest.raises(ParseError, match=re.escape(f"{path}: bad space definition")):
            load_tabular(path)

    def test_extremes_computed(self, tmp_path):
        path = write_task_file(
            tmp_path,
            [
                {"config": {"x": 0.1}, "y": 0.2},
                {"config": {"x": 0.5}, "y": 0.5},
                {"config": {"x": 0.9}, "y": 0.3},
            ],
        )
        task = load_tabular(path)
        assert task.y_min == 0.2 and task.y_max == 0.5
        assert len(task.rows) == 3

    def test_empty_rows_rejected(self, tmp_path):
        path = write_task_file(tmp_path, [])
        with pytest.raises(ParseError):
            load_tabular(path)

    def test_out_of_bounds_row_names_row(self, tmp_path):
        path = write_task_file(
            tmp_path,
            [{"config": {"x": 0.1}, "y": 0.2}, {"config": {"x": 7.0}, "y": 0.1}],
        )
        with pytest.raises(ParseError, match="row 2"):
            load_tabular(path)

    def test_duplicates_keep_first_by_default(self, tmp_path):
        path = write_task_file(
            tmp_path,
            [{"config": {"x": 0.5}, "y": 0.2}, {"config": {"x": 0.5}, "y": 0.9}],
        )
        task = load_tabular(path)
        assert len(task.rows) == 1 and task.rows[0][1] == 0.2

    def test_duplicates_by_the_tables_own_row_equality_keep_first(self, tmp_path):
        # 2**53 and 2**53 + 1 differ as Python ints but share one float64 raw
        # value, so the table would reject the pair as a repeat.
        path = tmp_path / "big.json"
        space = {"params": [{"name": "n", "kind": "integer", "low": 0, "high": 1e17}]}
        rows = [{"config": {"n": 2**53}, "y": 0.2}, {"config": {"n": 2**53 + 1}, "y": 0.9}]
        path.write_text(json.dumps({"space": space, "rows": rows}))
        task = load_tabular(path)
        assert task.rows == ((Configuration({"n": 2**53}), 0.2),)

    def test_nonfinite_y_rejected(self, tmp_path):
        path = write_task_file(tmp_path, [{"config": {"x": 0.5}, "y": "oops"}])
        with pytest.raises(ParseError, match="row 1"):
            load_tabular(path)

    def test_save_round_trip(self, tmp_path):
        task = tiny_tabular("roundtrip", n=10)
        path = tmp_path / "rt.json"
        save_tabular(task, path)
        loaded = load_tabular(path)
        assert loaded.name == task.name
        assert loaded.rows == task.rows


class TestFromRows:
    def test_repeated_configuration_rejected_before_any_fit(self, monkeypatch):
        fits = []
        real_fit = gp.fit
        monkeypatch.setattr(gp, "fit", lambda *args, **kwargs: fits.append(1) or real_fit(*args, **kwargs))
        space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0.0, high=1.0)])
        configs = [Configuration({"x": v}) for v in (0.1, 0.2, 0.3, 0.4, 0.5)] * 2
        with pytest.raises(ValidationError, match=r"'b' repeats the configuration \{'x': 0.1\}"):
            tasks = [tiny_tabular("a")]
            tasks.append(TabularTask.from_rows("b", space, [(c, float(i)) for i, c in enumerate(configs)]))
            run_static(tasks, ["transbo"], budget=4, seeds=[0], n_s=5)
        assert fits == []

    @pytest.mark.parametrize(
        "bad, message, y",
        [
            ({"n": 3}, r"row 3: configuration missing parameter\(s\): \['lr'\]", 2.0),
            ({"lr": 0.1, "n": 3, "extra": 1}, r"row 3: configuration has unknown parameter\(s\): \['extra'", 2.0),
            ({"lr": 3.0, "n": 3}, r"row 3: parameter 'lr': 3.0 outside", 2.0),
            ({"lr": math.nan, "n": 3}, r"row 3: parameter 'lr': nan outside", 2.0),
            ({"lr": 0.1, "n": 3.5}, r"row 3: parameter 'n': 3.5 is not an integer", 2.0),
            ({"lr": 0.1, "n": True}, r"row 3: parameter 'n': True is not numeric", 2.0),
            ({"lr": "0.1", "n": 3}, r"row 3: parameter 'lr': '0.1' is not numeric", 2.0),
            ({"lr": 0.1, "n": 3, "algo": "d"}, r"row 3: parameter 'algo': 'd' is not a known category", 2.0),
            ({"lr": 0.1, "n": 3}, r"row 3: y must be a finite number", math.nan),
            ({"lr": 0.1, "n": 3}, r"row 3: y must be a finite number", True),
            ({"lr": 0.1, "n": 3}, r"row 3: y must be a finite number", "2"),
        ],
    )
    def test_invalid_row_rejected_naming_task_and_row_before_any_fit(self, monkeypatch, bad, message, y):
        # The table of the third row would otherwise reach run_static, whose
        # tabular lookup died with a bare KeyError after the source fits.
        fits = []
        monkeypatch.setattr(bench, "_fit_source", lambda *args: fits.append(1))
        space = mixed_table_space()
        good = [{"lr": 0.1, "n": 2, "algo": "a"}, {"lr": 0.2, "n": 4, "algo": "b"}]
        bad = {"algo": "c", **bad}
        rows = [(Configuration(v), float(i)) for i, v in enumerate(good)] + [(Configuration(bad), y)]
        with pytest.raises(ValidationError, match=r"tabular task 'b': " + message):
            tasks = [tiny_tabular("a"), TabularTask.from_rows("b", space, rows)]
            run_static(tasks, ["igp"], budget=3, seeds=1)
        assert fits == []

    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {
                    "lr": st.one_of(
                        st.floats(0.001, 3.0),
                        st.integers(0, 3),
                        st.sampled_from([0.5, 1, 1.0, True, "0.5", math.inf, math.nan]),
                    ),
                    "n": st.one_of(st.integers(0, 10), st.floats(1.0, 9.0), st.sampled_from([2.0, 5.0])),
                    "algo": st.sampled_from(["a", "b", "c", "d", 1]),
                },
                optional={"extra": st.just(0)},
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_accepts_exactly_what_an_independent_row_check_accepts(self, rows):
        """Oracle: a row check written value by value, independent of the
        library's columnar one, and ``bo._config_key`` for repeats."""
        space = mixed_table_space()
        configs = [Configuration(v) for v in rows]
        keys = [bo._config_key(c) for c in configs]
        valid = all(reference_row_ok(space, c) for c in configs) and len(set(keys)) == len(keys)
        try:
            task = TabularTask.from_rows("t", space, [(c, 1.0) for c in configs])
        except ValidationError:
            assert not valid
        else:
            assert valid
            assert [bo._config_key(c) for c, _ in task.rows] == keys

    def test_a_repeat_means_equal_raw_values_not_an_equal_encoding(self):
        space = ConfigSpace([ParamSpec("x", "continuous", 0.0, 1e300), ParamSpec("n", "integer", 0, 5)])
        # 0.0 and 5e-324 are distinct values whose encodings both round to 0.0.
        distinct = [Configuration({"x": 0.0, "n": 1}), Configuration({"x": 5e-324, "n": 1})]
        task = TabularTask.from_rows("t", space, [(c, float(i)) for i, c in enumerate(distinct)])
        np.testing.assert_array_equal(task.table.encoded[0], task.table.encoded[1])
        assert [task.table.index(c) for c in distinct] == [0, 1]
        repeats = [({"x": 0.0, "n": 1}, {"x": -0.0, "n": 1}), ({"x": 1.0, "n": 3}, {"x": 1, "n": 3.0})]
        for first, again in repeats:
            assert bo._config_key(Configuration(first)) == bo._config_key(Configuration(again))
            other = Configuration({"x": 2.0, "n": 0})
            rows = [(Configuration(first), 1.0), (other, 2.0), (Configuration(again), 3.0)]
            with pytest.raises(ValidationError, match="'t' repeats the configuration .* at row 3"):
                TabularTask.from_rows("t", space, rows)

    def test_table_holds_at_most_128_bytes_per_row(self):
        # A 2000-row 4-D table once its input rows are dropped: its columns,
        # encoded grid, row index and y take 80 B/row; a tuple of
        # Configuration objects took about 450.
        space = ConfigSpace([ParamSpec(f"x{d}", "continuous", -5.0, 5.0) for d in range(4)])
        TabularTask.from_rows("warm-up", space, [(c, 0.0) for c in sample_uniform(space, 5, seed=1)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            task = TabularTask.from_rows("t", space, [(c, 1.0) for c in sample_uniform(space, 2000, seed=0)])
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(task.rows) == 2000
        assert held / 2000 <= 128

    def test_value_types_survive_rows_save_and_load(self, tmp_path):
        space = mixed_table_space()
        values = [{"lr": 0.5, "n": 3, "algo": "b"}, {"lr": 1, "n": 7.0, "algo": "c"}]
        task = TabularTask.from_rows("typed", space, [(Configuration(v), 0.5) for v in values])
        save_tabular(task, tmp_path / "typed.json")
        for table in (task, load_tabular(tmp_path / "typed.json")):
            assert [c.values for c, _ in table.rows] == [
                {"lr": 0.5, "n": 3, "algo": "b"},
                {"lr": 1.0, "n": 7, "algo": "c"},
            ]
            for config, y in table.rows:
                assert [type(config.values[k]) for k in ("lr", "n", "algo")] == [float, int, str]
                assert type(y) is float


def mixed_table_space() -> ConfigSpace:
    return ConfigSpace(
        [
            ParamSpec(name="lr", kind="continuous-log", low=0.01, high=2.0),
            ParamSpec(name="n", kind="integer", low=2, high=8),
            ParamSpec(name="algo", kind="categorical", categories=("a", "b", "c")),
        ]
    )


def reference_row_ok(space: ConfigSpace, config: Configuration) -> bool:
    if set(config.values) != {p.name for p in space.params}:
        return False
    for p in space.params:
        v = config.values[p.name]
        if p.kind == "categorical":
            if v not in p.categories:
                return False
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            return False
        elif not (math.isfinite(v) and p.low <= v <= p.high) or (p.kind == "integer" and v != int(v)):
            return False
    return True


def full_grid_branin_extremes(translation, scale):
    """(min, max, argmin) with the max of the whole 257 x 257 grid."""
    lows, highs = np.array(bench.BRANIN_BOUNDS).T
    in_domain = [m for m in np.array(bench.BRANIN_MINIMA) + translation if np.all((lows <= m) & (m <= highs))]
    g1 = np.linspace(bench.BRANIN_BOUNDS[0][0], bench.BRANIN_BOUNDS[0][1], 257)
    g2 = np.linspace(bench.BRANIN_BOUNDS[1][0], bench.BRANIN_BOUNDS[1][1], 257)
    values = scale * bench._branin((g1 - translation[0])[:, None], (g2 - translation[1])[None, :])
    y_max = float(values.max())
    if in_domain:
        return scale * bench.BRANIN_MIN_VALUE, y_max, in_domain[0]
    i, j = divmod(int(values.argmin()), g2.size)
    return float(values.min()), y_max, np.array([g1[i], g2[j]])


class TestSyntheticFamily:
    def test_zero_perturbation_reproduces_base(self):
        spec = SyntheticFamilySpec(
            base="branin", n_tasks=3, translation_range=0.0, scale_range=(1.0, 1.0), noise_scale=0.0
        )
        tasks = make_synthetic_family(spec)
        probe = np.array([[0.0, 5.0], [3.0, 9.0]])
        for task in tasks:
            np.testing.assert_allclose(task.noiseless(probe), branin(probe), atol=1e-12)
            assert task.y_min == pytest.approx(bench.BRANIN_MIN_VALUE)

    def test_true_incumbent_skips_failed_trials(self):
        task = make_synthetic_family(SyntheticFamilySpec(base="branin", n_tasks=1))[0]
        configs = [{"x1": 0.0, "x2": 5.0}, {"x1": 3.0, "x2": 9.0}, {"x1": math.pi, "x2": 2.275}]
        records = [{"config": c, "failed": f} for c, f in zip(configs, (True, False, True))]
        out = bench._augment_true_values(bo.RunResult(records), task)
        y_true = [r["y_true"] for r in out.records]
        assert [r["incumbent_y_true"] for r in out.records] == [None, y_true[1], y_true[1]]
        assert out.incumbents("incumbent_y_true")[0] == math.inf

    def test_deterministic_per_seed(self):
        spec = SyntheticFamilySpec(base="branin", n_tasks=4, seed=13)
        a = make_synthetic_family(spec)
        b = make_synthetic_family(spec)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.translation, tb.translation)
            assert ta.scale == tb.scale and ta.y_max == tb.y_max

    def test_bowl_optimum_location_is_translation(self):
        spec = SyntheticFamilySpec(
            base="quadratic-bowl", n_tasks=5, translation_range=3.0, seed=2, dim=2
        )
        for task in make_synthetic_family(spec):
            np.testing.assert_allclose(task.optimum, task.translation, atol=1e-9)
            assert task.y_min == 0.0
            probe = task.translation[None, :]
            assert task.noiseless(probe)[0] == pytest.approx(0.0, abs=1e-12)

    def test_branin_minimum_scales(self):
        spec = SyntheticFamilySpec(base="branin", n_tasks=6, seed=5)
        for task in make_synthetic_family(spec):
            assert task.y_min == pytest.approx(task.scale * bench.BRANIN_MIN_VALUE)
            # the in-domain translated minimum attains it
            loc = np.array([math.pi, 2.275]) + task.translation
            assert task.noiseless(loc[None, :])[0] == pytest.approx(task.y_min, rel=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        t1=st.floats(-9.0, 9.0),
        t2=st.floats(-9.0, 9.0),
        scale=st.floats(0.05, 20.0),
    )
    def test_branin_extremes_match_the_mesh_formula(self, t1, t2, scale):
        """The broadcast grid gives the bits of the flattened 257 x 257 mesh:
        min, max and argmin point, also where no minimum stays in the box."""
        translation = np.array([t1, t2])
        g1 = np.linspace(-5.0, 10.0, 257)
        g2 = np.linspace(0.0, 15.0, 257)
        mesh = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
        values = scale * branin(mesh - translation)
        y_min, y_max, optimum = bench._branin_extremes(translation, scale)
        assert y_max == float(values.max())
        shifted = [np.array(m) + translation for m in bench.BRANIN_MINIMA]
        inside = [m for m in shifted if -5.0 <= m[0] <= 10.0 and 0.0 <= m[1] <= 15.0]
        if inside:
            assert y_min == scale * bench.BRANIN_MIN_VALUE
            np.testing.assert_array_equal(optimum, inside[0])
        else:
            assert y_min == float(values.min())
            np.testing.assert_array_equal(optimum, mesh[int(values.argmin())])

    def test_branin_extremes_keep_the_full_grid_bits(self):
        """Oracle: the whole 257 x 257 grid, as ``_branin_extremes`` built it
        before its max came from the two x2 edge columns. Both kinds of
        minimum must be drawn: in the box, and out of it (grid fallback)."""
        kinds = set()

        @settings(max_examples=300, deadline=None)
        @given(t1=st.floats(-8.0, 8.0), t2=st.floats(-8.0, 8.0), scale=st.floats(0.1, 10.0))
        def check(t1, t2, scale):
            translation = np.array([t1, t2])
            expected = full_grid_branin_extremes(translation, scale)
            y_min, y_max, optimum = bench._branin_extremes(translation, scale)
            assert (y_min, y_max) == expected[:2]
            np.testing.assert_array_equal(optimum, expected[2])
            kinds.add(y_min == scale * bench.BRANIN_MIN_VALUE)

        check()
        assert kinds == {True, False}

    @pytest.mark.parametrize("translation_range", [2.0, 8.0])
    def test_branin_families_keep_the_full_grid_bits(self, monkeypatch, translation_range):
        specs = [SyntheticFamilySpec(base="branin", translation_range=translation_range, seed=s) for s in range(5)]
        fields = ("name", "translation", "scale", "noise_sigma", "y_min", "y_max", "optimum")
        fast = [make_synthetic_family(spec) for spec in specs]
        monkeypatch.setattr(bench, "_branin_extremes", full_grid_branin_extremes)
        for spec, tasks in zip(specs, fast):
            for task, expected in zip(tasks, make_synthetic_family(spec), strict=True):
                for name in fields:
                    np.testing.assert_array_equal(getattr(task, name), getattr(expected, name), err_msg=name)

    def test_noise_scales_with_output_range(self):
        spec = SyntheticFamilySpec(base="branin", n_tasks=2, noise_scale=0.01, seed=1)
        for task in make_synthetic_family(spec):
            assert task.noise_sigma == pytest.approx(0.01 * (task.y_max - task.y_min))

    def test_unknown_base_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticFamilySpec(base="rastrigin")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("base", 1),
            ("n_tasks", "3"),
            ("n_tasks", True),
            ("seed", 1.0),
            ("dim", None),
            ("translation_range", "2"),
            ("noise_scale", False),
            ("scale_range", 1.0),
            ("scale_range", (0.8, 1.0, 1.25)),
            ("scale_range", ("0.8", 1.25)),
        ],
    )
    def test_field_of_the_wrong_type_rejected(self, key, value):
        with pytest.raises(ValidationError, match=f"family key '{key}'"):
            SyntheticFamilySpec(**{key: value})


class TestAdtm:
    def test_reaching_the_minimum_gives_zero(self):
        np.testing.assert_array_equal(adtm([[0.1]], [0.1], [0.5]), [0.0])

    def test_worst_point_gives_one(self):
        np.testing.assert_array_equal(adtm([[0.5]], [0.1], [0.5]), [1.0])

    def test_hand_computed_value(self):
        np.testing.assert_allclose(adtm([[0.2]], [0.1], [0.5]), [0.25])

    def test_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(0)
        curves = [np.minimum.accumulate(rng.uniform(1.0, 9.0, size=20)) for _ in range(4)]
        out = adtm(curves, [1.0] * 4, [9.0] * 4)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diff(out) <= 1e-12)

    def test_degenerate_task_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            out = adtm([[0.5], [0.2]], [0.5, 0.1], [0.5, 0.5])
        np.testing.assert_allclose(out, [0.25])

    def test_all_degenerate_rejected(self):
        with pytest.warns(UserWarning):
            with pytest.raises(ValidationError):
                adtm([[0.5]], [0.5], [0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            adtm([], [], [])

    def test_no_success_yet_is_distance_one(self):
        np.testing.assert_allclose(adtm([[math.inf, 0.3]], [0.1], [0.5]), [1.0, 0.5], rtol=0.0, atol=1e-12)


class TestAverageRank:
    def test_worked_tie_example(self):
        np.testing.assert_array_equal(average_rank([0.2, 0.3, 0.3, 0.45]), [1.0, 2.5, 2.5, 4.0])

    def test_full_tie(self):
        np.testing.assert_array_equal(average_rank([1.0] * 5), [3.0] * 5)

    def test_strictly_increasing(self):
        np.testing.assert_array_equal(average_rank([0.1, 0.2, 0.3]), [1.0, 2.0, 3.0])

    def test_ranks_sum_is_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = int(rng.integers(2, 8))
            values = rng.choice([0.1, 0.2, 0.3], size=m)
            assert average_rank(values).sum() == pytest.approx(m * (m + 1) / 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            average_rank([0.1, float("nan")])

    def test_no_success_yet_ranks_last(self):
        # +inf is the incumbent of a run whose trials have all failed so far
        np.testing.assert_array_equal(average_rank([0.2, math.inf, 0.1, math.inf]), [2.0, 3.5, 1.0, 3.5])
        with pytest.raises(ValidationError):
            average_rank([0.1, -math.inf])


@st.composite
def tied_rows(draw, max_rows=1):
    """(rows, m) values drawn from a few distinct floats plus ``+inf``, so
    that ties are common."""
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4))
    pool.append(math.inf)
    m = draw(st.integers(1, 10))
    n_rows = draw(st.integers(1, max_rows))
    cells = st.lists(st.sampled_from(pool), min_size=m, max_size=m)
    return np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))


class TestAverageRankOracle:
    """``average_rank`` against scipy's ``rankdata``, which the library
    itself does not import."""

    @given(values=tied_rows())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_rankdata(self, values):
        ranks = average_rank(values[0])
        expected = rankdata(values[0], method="average")
        assert ranks.dtype == expected.dtype and ranks.tobytes() == expected.tobytes()

    @given(matrix=tied_rows(max_rows=6))
    @settings(max_examples=100, deadline=None)
    def test_rows_rank_like_one_dimensional_calls(self, matrix):
        ranks = average_rank(matrix)
        assert ranks.tobytes() == np.stack([average_rank(row) for row in matrix]).tobytes()

    @given(values=tied_rows(), bad=st.sampled_from([math.nan, -math.inf]), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_nan_and_negative_infinity_rejected(self, values, bad, data):
        row = values[0].tolist()
        row.insert(data.draw(st.integers(0, len(row))), bad)
        with pytest.raises(ValidationError):
            average_rank(row)
        with pytest.raises(ValidationError):
            average_rank([row, row])


class TestRunStatic:
    def test_two_tasks_single_method_single_seed(self):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        result = run_static(tasks, ["random"], budget=5, seeds=1, n_s=10)
        assert len(result.runs) == 2
        assert set(result.runs) == {("a", "random", 0), ("b", "random", 0)}

    def test_rerun_is_deterministic(self):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        kwargs = dict(methods=["transbo", "random"], budget=6, seeds=[0, 1], n_s=10)
        r1 = run_static(tasks, **kwargs)
        r2 = run_static(tasks, **kwargs)
        for key in r1.runs:
            a, b = r1.runs[key].records, r2.runs[key].records
            for ra, rb in zip(a, b):
                da = {k: v for k, v in ra.items() if k != "suggest_wallclock_ms"}
                db = {k: v for k, v in rb.items() if k != "suggest_wallclock_ms"}
                assert da == db

    def test_initial_design_shared_across_methods(self):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        result = run_static(tasks, ["igp", "random"], budget=4, seeds=1, n_s=10)
        for task in ("a", "b"):
            igp_head = result.runs[(task, "igp", 0)].records[:3]
            rnd_head = result.runs[(task, "random", 0)].records[:3]
            assert [r["config"] for r in igp_head] == [r["config"] for r in rnd_head]

    def test_sources_exclude_target_task(self):
        tasks = [tiny_tabular(n, seed=i) for i, n in enumerate(("a", "b", "c"))]
        for ti in range(len(tasks)):
            ensemble = build_static_sources(tasks, ti, n_s=10, base_seed=0)
            others = [t for j, t in enumerate(tasks) if j != ti]
            assert len(ensemble.models) == len(others)
            # source k is fitted on rows of the k-th task other than the target
            for source_task, model in zip(others, ensemble.models):
                table = {
                    tuple(np.round(bench.space_mod.encode_batch(source_task.space, [c])[0], 12)): y
                    for c, y in source_task.rows
                }
                keys = [tuple(np.round(row, 12)) for row in model.train_inputs]
                assert all(key in table for key in keys)
                ys = [table[key] for key in keys]
                assert model.train_targets.tobytes() == gp.standardize(ys).tobytes()

    @pytest.mark.parametrize("targets, flip, fits", [(None, False, 4), ([3], False, 3), ([2, 0], True, 4)])
    def test_each_source_fitted_once_for_every_target(self, monkeypatch, targets, flip, fits):
        # A source depends on its own task only: one target needs the T - 1
        # others, two or more need all T, each fitted once and handed to every
        # target but its own, bit for bit the ensemble build_static_sources gives.
        tasks = [tiny_tabular(n, seed=i, shift=0.1 * i) for i, n in enumerate("abcd")]
        fit_source, run_job = bench._fit_source, bench._run_job
        fitted, handed = [], {}

        def counting_fit(*args):
            fitted.append(args)
            return fit_source(*args)

        def recording_run(task, ti, seed, sources, *rest):
            handed[ti] = sources
            return run_job(task, ti, seed, sources, *rest)

        monkeypatch.setattr(bench, "_fit_source", counting_fit)
        monkeypatch.setattr(bench, "_run_job", recording_run)
        run_static(tasks, ["transbo"], budget=3, seeds=1, n_s=10, targets=targets, flip_source_outputs=flip)
        assert len(fitted) == fits
        monkeypatch.undo()
        assert sorted(handed) == sorted(range(len(tasks)) if targets is None else targets)
        bits = lambda m: (m.train_inputs.tobytes(), m.train_targets.tobytes(), m.params.lengthscales.tobytes(),
                          m.params.signal_variance, m.params.noise_variance)
        for ti, sources in handed.items():
            expected = build_static_sources(tasks, ti, n_s=10, flip_source_outputs=flip)
            assert [bits(m) for m in sources.models] == [bits(m) for m in expected.models]
            assert len(expected.models) == len(tasks) - 1

    @pytest.mark.parametrize("methods", [["igp"], ["random"], ["random", "igp"]])
    def test_no_source_fitted_without_transbo(self, monkeypatch, methods):
        # Only transbo reads sources: without it every target gets the empty ensemble.
        tasks = [tiny_tabular(n, seed=i, shift=0.1 * i) for i, n in enumerate("abc")]
        fit_source, run_job = bench._fit_source, bench._run_job
        fitted, handed = [], []

        def counting_fit(*args):
            fitted.append(args)
            return fit_source(*args)

        def recording_run(task, ti, seed, sources, *rest):
            handed.append(len(sources.models))
            return run_job(task, ti, seed, sources, *rest)

        monkeypatch.setattr(bench, "_fit_source", counting_fit)
        monkeypatch.setattr(bench, "_run_job", recording_run)
        run_static(tasks, methods, budget=4, seeds=1, n_s=10)
        assert fitted == [] and handed == [0] * len(tasks) * len(methods)

    @pytest.mark.parametrize("targets", [None, [0]])
    def test_task_of_another_space_rejected_before_any_fit(self, monkeypatch, targets):
        def refuse(*args, **kwargs):
            raise AssertionError("a source was fitted or a run started on tasks of two spaces")

        monkeypatch.setattr(bench, "_fit_source", refuse)
        monkeypatch.setattr(bench, "_run_job", refuse)
        tasks = _bowls_of_two_spaces()
        with pytest.raises(ValidationError, match="task 'bowl-3d-a' has another space than the first task 'bowl-2d'"):
            run_static(tasks, ["transbo", "igp"], budget=4, seeds=1, n_s=5, targets=targets)

    def test_single_task_rejected(self):
        with pytest.raises(ValidationError):
            run_static([tiny_tabular("a")], ["random"], budget=5, seeds=1)

    def test_tiny_budget_rejected(self):
        tasks = [tiny_tabular("a"), tiny_tabular("b")]
        with pytest.raises(ValidationError):
            run_static(tasks, ["random"], budget=2, seeds=1)

    def test_unknown_method_rejected(self):
        tasks = [tiny_tabular("a"), tiny_tabular("b")]
        with pytest.raises(ValidationError):
            run_static(tasks, ["sa"], budget=5, seeds=1)

    @pytest.mark.parametrize("targets", [[-1], [3], [2, 2], [], [1.0], [True]])
    def test_bad_targets_rejected_before_any_source_fit(self, monkeypatch, targets):
        def refuse(*args, **kwargs):
            raise AssertionError("a source was fitted for an invalid target list")

        monkeypatch.setattr(bench, "_fit_source", refuse)
        tasks = [tiny_tabular(n, seed=i) for i, n in enumerate(("a", "b", "c"))]
        with pytest.raises(ValidationError):
            run_static(tasks, ["random"], budget=4, seeds=1, n_s=5, targets=targets)

    @pytest.mark.parametrize("target_index", [-1, 3])
    def test_sources_reject_a_target_outside_the_tasks(self, target_index):
        tasks = [tiny_tabular(n, seed=i) for i, n in enumerate(("a", "b", "c"))]
        with pytest.raises(ValidationError):
            build_static_sources(tasks, target_index, n_s=5)

    def test_parallel_workers_match_serial(self):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        kwargs = dict(methods=["transbo", "random"], budget=5, seeds=[0, 1], n_s=10)
        serial = run_static(tasks, **kwargs)
        parallel = run_static(tasks, workers=2, **kwargs)
        assert set(serial.runs) == set(parallel.runs)
        for key in serial.runs:
            for ra, rb in zip(serial.runs[key].records, parallel.runs[key].records):
                da = {k: v for k, v in ra.items() if k != "suggest_wallclock_ms"}
                db = {k: v for k, v in rb.items() if k != "suggest_wallclock_ms"}
                assert da == db

    def test_perfect_sources_help_by_trial_ten(self):
        # zero-perturbation family: every source is the target function itself
        spec = SyntheticFamilySpec(
            base="quadratic-bowl",
            n_tasks=4,
            translation_range=0.0,
            scale_range=(1.0, 1.0),
            noise_scale=0.01,
            seed=9,
        )
        tasks = make_synthetic_family(spec)
        result = run_static(
            tasks, ["transbo", "igp"], budget=10, seeds=20, n_s=50, targets=[0], n_candidates=1000
        )
        target = tasks[0]
        means = {}
        for method in ("transbo", "igp"):
            finals = [
                result.incumbent_curve(target.name, method, s, true_values=True)[9]
                for s in result.seeds
            ]
            means[method] = float(np.mean(finals))
        eps = 0.01 * (target.y_max - target.y_min)
        assert means["transbo"] <= means["igp"] + eps


def _bowls_of_two_spaces() -> list:
    """A 2-D bowl task, then two 3-D ones: three tasks of two spaces."""
    specs = [SyntheticFamilySpec(base="quadratic-bowl", n_tasks=k, dim=d, seed=0) for k, d in ((1, 2), (2, 3))]
    two_d, three_d = (make_synthetic_family(spec) for spec in specs)
    names = ("bowl-2d", "bowl-3d-a", "bowl-3d-b")
    return [dataclasses.replace(t, name=n) for t, n in zip(two_d + three_d, names)]


class TestSharedArgumentChecks:
    """Both protocols reject the same bad arguments, before any run."""

    @pytest.mark.parametrize("protocol", [run_static, run_dynamic])
    @pytest.mark.parametrize(
        "bad",
        [
            dict(methods=["random"], budget=bo.N_INIT - 1, seeds=1),
            dict(methods=[], budget=4, seeds=1),
            dict(methods=["sa"], budget=4, seeds=1),
            dict(methods=["igp", "igp"], budget=4, seeds=1),
            dict(methods=["random"], budget=4, seeds=0),
            dict(methods=["random"], budget=4, seeds=[]),
            dict(methods=["random"], budget=4, seeds=[0, 0]),
            dict(methods=["random"], budget=4, seeds=[-1]),
            dict(methods=["random"], budget=4, seeds=1, n_s=0),
            dict(methods=["random"], budget=4, seeds=1, base_seed=-1),
            dict(methods=["random"], budget=4, seeds=1, n_cv=1),
            dict(methods=["random"], budget=4, seeds=1, n_cv=2.5),
            dict(methods=["random"], budget=4, seeds=1, n_candidates=0),
            dict(methods=["random"], budget=4, seeds=1, n_candidates=50.0),
            dict(methods=["random"], budget=7.5, seeds=1),
            dict(methods=["transbo"], budget=True, seeds=1),
            dict(methods=["transbo"], budget=7.5, seeds=1),
            dict(methods=["random"], budget=4, seeds=1, n_s=2.5),
            dict(methods=["transbo"], budget=4, seeds=1, n_s=True),
            dict(methods=["transbo"], budget=4, seeds=1, n_s=5.0),
            dict(methods=["random"], budget=4, seeds=1, base_seed=1.5),
            dict(methods=["random"], budget=4, seeds=1, base_seed=True),
            dict(methods=["random"], budget=4, seeds=1, base_seed=1.0),
            dict(methods=["transbo"], budget=4, seeds=1, workers=1.5),
            dict(methods=["transbo"], budget=4, seeds=1, workers="2"),
        ],
    )
    def test_rejected(self, monkeypatch, protocol, bad):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started despite a bad argument")

        monkeypatch.setattr(bench, "_run_job", refuse)
        monkeypatch.setattr(bench, "_fit_source", refuse)
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        with pytest.raises(ValidationError):
            protocol(tasks, **{"n_s": 5, **bad})

    def test_dynamic_task_of_another_space_rejected_before_any_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a run started on tasks of two spaces")

        monkeypatch.setattr(bench, "_run_job", refuse)
        monkeypatch.setattr(bench, "_fit_source", refuse)
        with pytest.raises(ValidationError, match="task 'bowl-3d-a' has another space"):
            run_dynamic(_bowls_of_two_spaces(), ["transbo"], budget=4, seeds=1, n_s=5)

    def test_dynamic_needs_a_task(self):
        with pytest.raises(ValidationError):
            run_dynamic([], ["random"], budget=4, seeds=1)


class TestRunDynamic:
    def test_first_task_has_no_sources(self):
        # with zero predecessors, the transfer policy collapses onto the
        # independent GP, so their first-task records must coincide
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        result = run_dynamic(tasks, ["transbo", "igp"], budget=5, seeds=1, n_s=10)
        a = result.runs[("a", "transbo", 0)].records
        b = result.runs[("a", "igp", 0)].records
        assert [r["config"] for r in a] == [r["config"] for r in b]
        assert [r["y"] for r in a] == [r["y"] for r in b]

    def test_later_source_fitted_on_earlier_records(self, monkeypatch):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        seen = []
        real_run_job = bench._run_job

        def recording(task, ti, seed, sources, *args):
            seen.append(sources)
            return real_run_job(task, ti, seed, sources, *args)

        monkeypatch.setattr(bench, "_run_job", recording)
        result = run_dynamic(tasks, ["transbo"], budget=3, seeds=1, n_s=2)
        assert [len(s.models) for s in seen] == [0, 1]
        head = result.runs[("a", "transbo", 0)].records[:2]
        encoded = bench.space_mod.encode_batch(
            tasks[0].space, [Configuration(r["config"]) for r in head]
        )
        source = seen[1].models[0]
        assert source.train_inputs.tobytes() == encoded.tobytes()
        np.testing.assert_array_equal(
            source.train_targets, bench.gp.standardize([r["y"] for r in head])
        )

    @pytest.mark.parametrize("method, fits", [("transbo", 2), ("igp", 0), ("random", 0)])
    def test_only_a_transbo_chain_fits_sources_and_not_for_its_last_task(self, monkeypatch, method, fits):
        # Only transbo reads sources, and no task follows the last one.
        tasks = [tiny_tabular(n, seed=i, shift=0.1 * i) for i, n in enumerate("abc")]
        fit_source = bench._fit_source
        fitted = []

        def counting_fit(*args):
            fitted.append(args)
            return fit_source(*args)

        monkeypatch.setattr(bench, "_fit_source", counting_fit)
        run_dynamic(tasks, [method], budget=4, seeds=1, n_s=3)
        assert len(fitted) == fits

    def test_single_task_top_counts(self):
        result = run_dynamic([tiny_tabular("a", seed=0)], ["random"], budget=4, seeds=1, n_s=5)
        counts = top_counts(result)
        assert counts["random"] == (1, 0)

    def test_all_pairs_present(self):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        result = run_dynamic(tasks, ["igp", "random"], budget=4, seeds=[0, 1], n_s=5)
        assert len(result.runs) == 2 * 2 * 2

    def test_parallel_chains_match_serial(self):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        kwargs = dict(methods=["transbo", "random"], budget=4, seeds=[0], n_s=5)
        serial = run_dynamic(tasks, **kwargs)
        parallel = run_dynamic(tasks, workers=2, **kwargs)
        assert set(serial.runs) == set(parallel.runs)
        for key in serial.runs:
            ys_a = [r["y"] for r in serial.runs[key].records]
            ys_b = [r["y"] for r in parallel.runs[key].records]
            assert ys_a == ys_b

    def test_related_family_top_counts_reported(self, capsys):
        # qualitative expectation on a related family: reported, not asserted
        spec = SyntheticFamilySpec(
            base="quadratic-bowl",
            n_tasks=3,
            translation_range=1.0,
            scale_range=(0.9, 1.1),
            noise_scale=0.01,
            seed=11,
        )
        tasks = make_synthetic_family(spec)
        result = run_dynamic(
            tasks, ["transbo", "igp"], budget=10, seeds=3, n_s=20, n_candidates=500
        )
        counts = top_counts(result)
        with capsys.disabled():
            print(f"\n[dynamic related family] top counts: {counts}")
        assert set(counts) == {"transbo", "igp"}


class TestTopCounts:
    def _result_with_finals(self, finals_by_method):
        result = ExperimentResult(
            protocol="dynamic",
            budget=1,
            n_s=5,
            n_cv=5,
            methods=list(finals_by_method),
            seeds=[0],
            tasks=[bench.TaskMeta("t0", 0.0, 1.0), bench.TaskMeta("t1", 0.0, 1.0)],
        )
        for method, finals in finals_by_method.items():
            for ti, value in enumerate(finals):
                records = [
                    {"iteration": 0, "incumbent_y": value, "suggest_wallclock_ms": 0.0, "y": value}
                ]
                result.runs[(f"t{ti}", method, 0)] = bo.RunResult(records)
        return result

    def test_ties_credit_every_method(self):
        result = self._result_with_finals({"m1": [0.1, 0.2], "m2": [0.1, 0.4], "m3": [0.3, 0.3]})
        counts = top_counts(result)
        assert counts["m1"] == (2, 0)  # best on t0 (tied) and t1
        assert counts["m2"] == (1, 0)  # tied best on t0
        assert counts["m3"] == (0, 2)  # second on both

    def test_run_without_success_finishes_last(self):
        result = self._result_with_finals({"m1": [0.1, None], "m2": [0.2, 0.3]})
        assert top_counts(result) == {"m1": (1, 1), "m2": (1, 1)}


def run_with(incumbents, walls, true=None, weights=None):
    """A RunResult with one record per trial carrying the given fields."""
    records = []
    for i, (incumbent, wall) in enumerate(zip(incumbents, walls)):
        record = {"iteration": i, "incumbent_y": incumbent, "suggest_wallclock_ms": wall}
        if true is not None:
            record["incumbent_y_true"] = true[i]
        if weights is not None:
            record.update(weights[i])
        records.append(record)
    return bo.RunResult(records)


class TestReportValues:
    """The exact text of every report file on hand-built records: ``syn``
    carries noiseless incumbents (range 0-4), ``tab`` only observed ones
    (range 1-3); trials tie across methods, and runs start without a
    successful trial (``None`` incumbents)."""

    WEIGHTS = [
        {"p_source": None, "p_target": None, "w": None},
        {"p_source": 0.75, "p_target": 0.25, "w": [0.5, 0.5]},
        {"p_source": 0.25, "p_target": 0.75, "w": [1.0, 0.0]},
    ]

    def _result(self):
        result = ExperimentResult(
            protocol="dynamic",
            budget=3,
            n_s=5,
            n_cv=5,
            methods=["transbo", "igp"],
            seeds=[0, 1],
            tasks=[bench.TaskMeta("syn", 0.0, 4.0), bench.TaskMeta("tab", 1.0, 3.0)],
        )
        result.runs = {
            ("syn", "transbo", 0): run_with(
                [3.0, 1.0, 1.0], [0.5, 2.0, 4.0], true=[2.0, 0.5, 0.5], weights=self.WEIGHTS
            ),
            ("syn", "transbo", 1): run_with([None, 2.0, 2.0], [1.0, 1.0, 1.0], true=[None, 1.0, 1.0]),
            ("syn", "igp", 0): run_with([3.0, 3.0, 1.0], [0.25, 0.25, 0.5], true=[2.0, 2.0, 0.5]),
            ("syn", "igp", 1): run_with([None, None, 4.0], [1.0, 2.0, 3.0], true=[None, None, 3.0]),
            ("tab", "transbo", 0): run_with([2.0, 2.0, 1.5], [0.5, 0.5, 0.5]),
            ("tab", "transbo", 1): run_with([2.5, 1.0, 1.0], [1.0, 0.5, 0.25]),
            ("tab", "igp", 0): run_with([2.0, 1.5, 1.5], [0.5, 1.0, 1.5]),
            ("tab", "igp", 1): run_with([2.5, 2.5, 1.0], [0.5, 0.5, 0.5]),
        }
        return result

    def test_file_texts(self, tmp_path):
        files = report(self._result(), tmp_path)
        texts = {str(Path(f).relative_to(tmp_path)): Path(f).read_text() for f in files}
        assert texts == {
            # trial 1: syn 2.0/4 and tab (2.0-1)/2 at seed 0, 1.0 (None) and 0.75 at seed 1
            "adtm.csv": "trial,transbo,igp\n1,0.6875,0.6875\n2,0.21875,0.625\n3,0.15625,0.28125\n",
            # trial 1 ties everywhere; trial 2 transbo is first on three of four (task, seed)
            "avg_rank.csv": "trial,transbo,igp\n1,1.5,1.5\n2,1.25,1.75\n3,1.375,1.625\n",
            "overhead.csv": "trial,transbo,igp\n1,0.75,0.5625\n2,1.75,1.5\n3,3.1875,2.875\n",
            "weights/syn__transbo__seed0.csv": (
                "iteration,p_source,p_target,w_1,w_2\n1,0.75,0.25,0.5,0.5\n2,0.25,0.75,1.0,0.0\n"
            ),
            # syn: transbo 1.5 beats igp 2.5; tab: both 1.25, so both are credited first
            "top_counts.csv": "method,top1,top2\ntransbo,2,0\nigp,1,1\n",
        }
        assert list(texts)[:3] == ["adtm.csv", "avg_rank.csv", "overhead.csv"]


class TestReport:
    def _static_result(self):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        return run_static(tasks, ["transbo", "random"], budget=6, seeds=[0], n_s=10)

    def test_static_report_shapes(self, tmp_path):
        result = self._static_result()
        files = report(result, tmp_path)
        adtm_lines = (tmp_path / "adtm.csv").read_text().strip().splitlines()
        assert adtm_lines[0] == "trial,transbo,random"
        assert len(adtm_lines) == 1 + 6
        rank_lines = (tmp_path / "avg_rank.csv").read_text().strip().splitlines()
        assert len(rank_lines) == 1 + 6
        assert (tmp_path / "overhead.csv").exists()
        weight_files = list((tmp_path / "weights").glob("*.csv"))
        assert len(weight_files) == 2  # one per transfer run
        assert all(str(tmp_path) in f for f in files)
        for (task, method, seed), run_result in result.runs.items():
            if method != "transbo":
                continue
            path = tmp_path / "weights" / f"{task}__{method}__seed{seed}.csv"
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "iteration,p_source,p_target,w_1"  # one source per target
            assert lines[1].startswith("3,1.0,0.0,")  # below the CV threshold
            assert lines[1:] == [
                ",".join(
                    [str(r["iteration"]), repr(r["p_source"]), repr(r["p_target"])]
                    + [repr(v) for v in r["w"]]
                )
                for r in run_result.records[3:]
            ]

    def test_dynamic_report_includes_top_counts(self, tmp_path):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        result = run_dynamic(tasks, ["igp", "random"], budget=4, seeds=1, n_s=5)
        report(result, tmp_path)
        lines = (tmp_path / "top_counts.csv").read_text().strip().splitlines()
        assert lines[0] == "method,top1,top2"
        assert len(lines) == 3

    def test_empty_result_rejected(self, tmp_path):
        empty = ExperimentResult(
            protocol="static", budget=5, n_s=5, n_cv=5, methods=[], seeds=[], tasks=[]
        )
        with pytest.raises(ValidationError):
            report(empty, tmp_path)

    def test_load_rejects_missing_run_file(self, tmp_path):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        run_static(tasks, ["igp", "random"], budget=4, seeds=[0], n_s=5).save(tmp_path / "out")
        (tmp_path / "out" / "runs" / "a__random__seed0.jsonl").unlink()
        with pytest.raises(ParseError, match="a__random__seed0.jsonl"):
            ExperimentResult.load(tmp_path / "out")

    def test_load_rejects_a_run_file_short_of_the_budget(self, tmp_path):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        run_static(tasks, ["igp", "random"], budget=4, seeds=[0], n_s=5).save(tmp_path / "out")
        path = tmp_path / "out" / "runs" / "b__igp__seed0.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
        with pytest.raises(ParseError, match="b__igp__seed0.jsonl: 3 records, expected the budget of 4"):
            ExperimentResult.load(tmp_path / "out")

    def test_load_rejects_an_unparseable_line(self, tmp_path):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        run_static(tasks, ["igp", "random"], budget=4, seeds=[0], n_s=5).save(tmp_path / "out")
        path = tmp_path / "out" / "runs" / "a__igp__seed0.jsonl"
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # the last line cut short
        with pytest.raises(ParseError, match="a__igp__seed0.jsonl: line 4: not a JSON record"):
            ExperimentResult.load(tmp_path / "out")

    def test_load_rejects_a_truncated_manifest(self, tmp_path):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        run_static(tasks, ["igp"], budget=4, seeds=[0], n_s=5).save(tmp_path / "out")
        path = tmp_path / "out" / "manifest.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError, match="manifest.json: not a JSON manifest"):
            ExperimentResult.load(tmp_path / "out")

    def test_load_rejects_a_manifest_missing_a_key(self, tmp_path):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        run_static(tasks, ["igp"], budget=4, seeds=[0], n_s=5).save(tmp_path / "out")
        path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["n_s"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="manifest.json: missing key 'n_s'"):
            ExperimentResult.load(tmp_path / "out")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda manifest: [1],
            lambda manifest: {**manifest, "tasks": [1]},
            lambda manifest: {**manifest, "methods": 3},
        ],
        ids=["not-an-object", "task-not-an-object", "methods-not-a-list"],
    )
    def test_load_rejects_a_manifest_entry_of_the_wrong_type(self, tmp_path, edit):
        tasks = [tiny_tabular("a", seed=0), tiny_tabular("b", seed=1)]
        run_static(tasks, ["igp"], budget=4, seeds=[0], n_s=5).save(tmp_path / "out")
        path = tmp_path / "out" / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ParseError, match="manifest.json: malformed manifest"):
            ExperimentResult.load(tmp_path / "out")

    def test_save_load_round_trip(self, tmp_path):
        result = self._static_result()
        result.save(tmp_path / "out")
        loaded = ExperimentResult.load(tmp_path / "out")
        assert set(loaded.runs) == set(result.runs)
        for key in result.runs:
            assert loaded.runs[key].records == json.loads(json.dumps(result.runs[key].records))
