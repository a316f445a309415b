"""Tests for search spaces, sampling, and encoding."""

import math

import numpy as np
import pytest

from tlbo.errors import ValidationError
from tlbo.space import (
    ConfigSpace,
    Configuration,
    ParamSpec,
    encode,
    encode_batch,
    sample_uniform,
    space_from_dict,
    space_to_dict,
)


def mixed_space() -> ConfigSpace:
    return ConfigSpace(
        [
            ParamSpec(name="lr", kind="continuous-log", low=0.01, high=2.0, default=0.1),
            ParamSpec(name="depth", kind="integer", low=2, high=8, default=3),
            ParamSpec(name="ratio", kind="continuous", low=0.0, high=1.0),
            ParamSpec(name="algo", kind="categorical", categories=("a", "b", "c"), default="a"),
        ]
    )


class TestParamSpec:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            ParamSpec(name="x", kind="continuous", low=1.0, high=0.0)

    def test_rejects_nonpositive_log_bounds(self):
        with pytest.raises(ValidationError):
            ParamSpec(name="x", kind="continuous-log", low=0.0, high=1.0)

    def test_rejects_duplicate_categories(self):
        with pytest.raises(ValidationError):
            ParamSpec(name="x", kind="categorical", categories=("a", "a"))

    def test_rejects_empty_categories(self):
        with pytest.raises(ValidationError):
            ParamSpec(name="x", kind="categorical", categories=())

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ParamSpec(name="x", kind="boolean", low=0, high=1)

    def test_rejects_out_of_bounds_default(self):
        with pytest.raises(ValidationError):
            ParamSpec(name="x", kind="continuous", low=0.0, high=1.0, default=2.0)

    def test_rejects_fractional_integer_bounds(self):
        with pytest.raises(ValidationError):
            ParamSpec(name="x", kind="integer", low=1.5, high=8)


class TestConfigSpace:
    def test_rejects_empty_space(self):
        with pytest.raises(ValidationError):
            ConfigSpace([])

    def test_rejects_duplicate_names(self):
        p = ParamSpec(name="x", kind="continuous", low=0, high=1)
        with pytest.raises(ValidationError):
            ConfigSpace([p, p])

    def test_encoded_dim_sums_widths(self):
        assert mixed_space().encoded_dim == 1 + 1 + 1 + 3

    def test_validate_flags_missing_and_extra(self):
        space = mixed_space()
        with pytest.raises(ValidationError, match="missing"):
            space.validate(Configuration({"lr": 0.1}))
        config = Configuration({"lr": 0.1, "depth": 3, "ratio": 0.5, "algo": "a", "junk": 1})
        with pytest.raises(ValidationError, match="unknown"):
            space.validate(config)

    def test_validate_names_offending_parameter(self):
        space = mixed_space()
        config = Configuration({"lr": 0.1, "depth": 99, "ratio": 0.5, "algo": "a"})
        with pytest.raises(ValidationError, match="depth"):
            space.validate(config)


class TestSampleUniform:
    def test_zero_count_gives_empty_list(self):
        space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0, high=1)])
        assert sample_uniform(space, 0, seed=7) == []

    def test_deterministic_for_fixed_seed(self):
        space = mixed_space()
        first = sample_uniform(space, 5, seed=7)
        second = sample_uniform(space, 5, seed=7)
        assert first == second

    def test_different_seeds_differ(self):
        space = mixed_space()
        assert sample_uniform(space, 5, seed=1) != sample_uniform(space, 5, seed=2)

    def test_negative_count_rejected(self):
        space = mixed_space()
        with pytest.raises(ValidationError):
            sample_uniform(space, -1, seed=0)

    def test_log_uniform_median_near_geometric_mean(self):
        # analytic median of log-uniform on [0.01, 2] is sqrt(0.02) ~ 0.141
        space = ConfigSpace([ParamSpec(name="lr", kind="continuous-log", low=0.01, high=2.0)])
        samples = sample_uniform(space, 10000, seed=1)
        median = np.median([c.values["lr"] for c in samples])
        assert 0.10 <= median <= 0.20

    def test_integer_sampling_covers_inclusive_range(self):
        space = ConfigSpace([ParamSpec(name="d", kind="integer", low=1, high=5)])
        values = {c.values["d"] for c in sample_uniform(space, 5000, seed=3)}
        assert values == {1, 2, 3, 4, 5}

    def test_samples_are_valid_in_space(self):
        space = mixed_space()
        for config in sample_uniform(space, 200, seed=11):
            space.validate(config)


class TestEncode:
    def test_continuous_midpoint(self):
        space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0, high=10)])
        np.testing.assert_allclose(encode(space, Configuration({"x": 5.0})), [0.5])

    def test_categorical_one_hot(self):
        space = ConfigSpace([ParamSpec(name="c", kind="categorical", categories=("a", "b", "c"))])
        np.testing.assert_array_equal(encode(space, Configuration({"c": "b"})), [0.0, 1.0, 0.0])

    def test_log_geometric_midpoint(self):
        # sqrt(0.01 * 2) is the geometric midpoint of [0.01, 2]
        space = ConfigSpace([ParamSpec(name="x", kind="continuous-log", low=0.01, high=2.0)])
        vec = encode(space, Configuration({"x": math.sqrt(0.02)}))
        np.testing.assert_allclose(vec, [0.5], atol=1e-12)

    def test_out_of_bounds_names_parameter(self):
        space = ConfigSpace([ParamSpec(name="x", kind="continuous", low=0, high=1)])
        with pytest.raises(ValidationError, match="x"):
            encode(space, Configuration({"x": 1.5}))

    def test_all_coordinates_in_unit_interval(self):
        space = mixed_space()
        configs = sample_uniform(space, 500, seed=5)
        enc = encode_batch(space, configs)
        assert enc.min() >= 0.0 and enc.max() <= 1.0

    def test_batch_matches_single(self):
        space = mixed_space()
        configs = sample_uniform(space, 20, seed=9)
        batch = encode_batch(space, configs)
        for i, config in enumerate(configs):
            np.testing.assert_array_equal(batch[i], encode(space, config))


class TestSerialization:
    def test_dict_round_trip(self):
        space = mixed_space()
        rebuilt = space_from_dict(space_to_dict(space))
        assert rebuilt == space

    def test_bad_payload_rejected(self):
        with pytest.raises(ValidationError):
            space_from_dict({"nope": []})
