"""Search spaces: parameter specs, uniform sampling, and numeric encoding.

A space is an ordered list of parameter specifications. Configurations map
into [0, 1]^D vectors for surrogate input: plain numeric parameters affinely,
log-scaled ones after a log transform, integers as continuous values, and
categoricals as one-hot blocks. Spaces are flat: no conditional parameters,
no forbidden clauses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ValidationError

KINDS = ("continuous", "continuous-log", "integer", "categorical")


@dataclass(frozen=True)
class ParamSpec:
    """One hyperparameter: numeric (plain, log-scaled, integer) or categorical."""

    name: str
    kind: str
    low: float | None = None
    high: float | None = None
    categories: tuple[Any, ...] = ()
    default: Any = None

    def __post_init__(self):
        if not self.name:
            raise ValidationError("parameter name must be non-empty")
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r} for parameter {self.name!r}")
        if self.kind == "categorical":
            cats = tuple(self.categories)
            if not cats:
                raise ValidationError(f"parameter {self.name!r}: empty category list")
            if len(set(cats)) != len(cats):
                raise ValidationError(f"parameter {self.name!r}: duplicate categories")
            object.__setattr__(self, "categories", cats)
            object.__setattr__(self, "low", None)
            object.__setattr__(self, "high", None)
        else:
            if self.low is None or self.high is None:
                raise ValidationError(f"parameter {self.name!r}: numeric kinds need low/high bounds")
            low, high = float(self.low), float(self.high)
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValidationError(f"parameter {self.name!r}: bounds must be finite")
            if not low < high:
                raise ValidationError(f"parameter {self.name!r}: low must be strictly below high")
            if self.kind == "continuous-log" and low <= 0:
                raise ValidationError(f"parameter {self.name!r}: log-scaled bounds must be positive")
            if self.kind == "integer" and (int(low) != low or int(high) != high):
                raise ValidationError(f"parameter {self.name!r}: integer bounds must be whole numbers")
            object.__setattr__(self, "low", low)
            object.__setattr__(self, "high", high)
        if self.default is not None:
            self.check_value(self.default)

    @property
    def width(self) -> int:
        """Number of encoded coordinates this parameter occupies."""
        return len(self.categories) if self.kind == "categorical" else 1

    def check_value(self, value) -> None:
        """Raise ValidationError if ``value`` is outside this parameter's domain."""
        if self.kind == "categorical":
            if value not in self.categories:
                raise ValidationError(f"parameter {self.name!r}: {value!r} is not a known category")
            return
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValidationError(f"parameter {self.name!r}: {value!r} is not numeric")
        v = float(value)
        if not math.isfinite(v) or v < self.low or v > self.high:
            raise ValidationError(
                f"parameter {self.name!r}: value {value!r} outside [{self.low}, {self.high}]"
            )
        if self.kind == "integer" and v != int(v):
            raise ValidationError(f"parameter {self.name!r}: {value!r} is not an integer")


@dataclass(frozen=True)
class ConfigSpace:
    """An ordered, flat collection of parameters defining the search domain."""

    params: tuple[ParamSpec, ...]

    def __init__(self, params):
        object.__setattr__(self, "params", tuple(params))
        if not self.params:
            raise ValidationError("a space needs at least one parameter")
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValidationError("parameter names must be unique")

    @property
    def encoded_dim(self) -> int:
        return sum(p.width for p in self.params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def validate(self, config: "Configuration") -> None:
        """Check that ``config`` carries exactly this space's parameters, in bounds."""
        missing = set(self.names) - set(config.values)
        extra = set(config.values) - set(self.names)
        if missing:
            raise ValidationError(f"configuration missing parameter(s): {sorted(missing)}")
        if extra:
            raise ValidationError(f"configuration has unknown parameter(s): {sorted(extra)}")
        for p in self.params:
            p.check_value(config.values[p.name])


@dataclass(frozen=True)
class Configuration:
    """A point in a ConfigSpace, as a name -> value mapping."""

    values: dict[str, Any] = field(default_factory=dict)


def sample_uniform(space: ConfigSpace, n: int, seed: int) -> list[Configuration]:
    """Draw ``n`` independent uniform configurations, reproducibly per seed.

    Log-scaled parameters are uniform in log space, integers uniform over the
    inclusive integer range, categoricals uniform over their categories.
    """
    if n < 0:
        raise ValidationError("sample count must be non-negative")
    rng = np.random.default_rng(seed)
    cols = _sample_arrays(space, n, rng)
    return [_config_from_arrays(space, cols, i) for i in range(n)]


def _sample_arrays(space: ConfigSpace, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Columnar uniform sample; categoricals are stored as index arrays."""
    cols: dict[str, np.ndarray] = {}
    for p in space.params:
        if p.kind == "continuous":
            cols[p.name] = rng.uniform(p.low, p.high, n)
        elif p.kind == "continuous-log":
            raw = np.exp(rng.uniform(np.log(p.low), np.log(p.high), n))
            cols[p.name] = np.clip(raw, p.low, p.high)
        elif p.kind == "integer":
            cols[p.name] = rng.integers(int(p.low), int(p.high) + 1, n)
        else:
            cols[p.name] = rng.integers(0, len(p.categories), n)
    return cols


def _config_from_arrays(space: ConfigSpace, cols: dict[str, np.ndarray], i: int) -> Configuration:
    values: dict[str, Any] = {}
    for p in space.params:
        v = cols[p.name][i]
        if p.kind == "categorical":
            values[p.name] = p.categories[int(v)]
        elif p.kind == "integer":
            values[p.name] = int(v)
        else:
            values[p.name] = float(v)
    return Configuration(values)


def _encode_arrays(space: ConfigSpace, cols: dict[str, np.ndarray], n: int) -> np.ndarray:
    """Encode columnar values (categoricals as indices) into an (n, D) matrix."""
    out = np.zeros((n, space.encoded_dim))
    j = 0
    for p in space.params:
        col = np.asarray(cols[p.name])
        if p.kind == "categorical":
            out[np.arange(n), j + col.astype(int)] = 1.0
        elif p.kind == "continuous-log":
            t = (np.log(col) - np.log(p.low)) / (np.log(p.high) - np.log(p.low))
            out[:, j] = np.clip(t, 0.0, 1.0)
        else:
            t = (col.astype(float) - p.low) / (p.high - p.low)
            out[:, j] = np.clip(t, 0.0, 1.0)
        j += p.width
    return out


def encode(space: ConfigSpace, config: Configuration) -> np.ndarray:
    """Encode a configuration into a vector in [0, 1]^encoded_dim."""
    space.validate(config)
    return encode_batch(space, [config])[0]


def encode_batch(space: ConfigSpace, configs: list[Configuration]) -> np.ndarray:
    """Encode many configurations at once; returns an (n, encoded_dim) matrix.

    Values are assumed valid; use :func:`encode` for validated single points.
    """
    n = len(configs)
    cols: dict[str, np.ndarray] = {}
    for p in space.params:
        if p.kind == "categorical":
            index = {c: k for k, c in enumerate(p.categories)}
            cols[p.name] = np.array([index[c.values[p.name]] for c in configs], dtype=int)
        else:
            cols[p.name] = np.array([c.values[p.name] for c in configs], dtype=float)
    return _encode_arrays(space, cols, n)


def space_to_dict(space: ConfigSpace) -> dict:
    params = []
    for p in space.params:
        d: dict[str, Any] = {"name": p.name, "kind": p.kind}
        if p.kind == "categorical":
            d["categories"] = list(p.categories)
        else:
            d["low"] = p.low
            d["high"] = p.high
        if p.default is not None:
            d["default"] = p.default
        params.append(d)
    return {"params": params}


def space_from_dict(data: dict) -> ConfigSpace:
    if not isinstance(data, dict) or "params" not in data:
        raise ValidationError("space definition must be an object with a 'params' list")
    specs = []
    for entry in data["params"]:
        specs.append(
            ParamSpec(
                name=entry.get("name", ""),
                kind=entry.get("kind", ""),
                low=entry.get("low"),
                high=entry.get("high"),
                categories=tuple(entry.get("categories", ())),
                default=entry.get("default"),
            )
        )
    return ConfigSpace(specs)

