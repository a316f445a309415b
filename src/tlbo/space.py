"""Search spaces: parameter specs, uniform sampling, and numeric encoding.

A space is an ordered list of parameter specifications. Configurations map
into [0, 1]^D vectors for surrogate input: plain numeric parameters affinely,
log-scaled ones after a log transform, integers as continuous values, and
categoricals as one-hot blocks. Spaces are flat: no conditional parameters,
no forbidden clauses.
"""
from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ValidationError

KINDS = ("continuous", "continuous-log", "integer", "categorical")


def is_int(v) -> bool:
    """Whether ``v`` is an integer, a bool not counted."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    """Whether ``v`` is a number, not a bool, whose float is finite."""
    with contextlib.suppress(OverflowError):  # an int beyond float range
        return (is_int(v) or isinstance(v, (float, np.floating))) and math.isfinite(v)
    return False


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
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"parameter name {self.name!r} is not a non-empty string")
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r} for parameter {self.name!r}")
        if self.kind == "categorical":
            cats = tuple(self.categories)
            if not cats:
                raise ValidationError(f"parameter {self.name!r}: empty category list")
            try:
                repeated = len(set(cats)) != len(cats)
            except TypeError:
                raise ValidationError(f"parameter {self.name!r}: categories must be hashable") from None
            if repeated:
                raise ValidationError(f"parameter {self.name!r}: duplicate categories")
            object.__setattr__(self, "categories", cats)
            object.__setattr__(self, "low", None)
            object.__setattr__(self, "high", None)
        else:
            try:  # also a missing bound, as float(None) raises TypeError
                low, high = float(self.low), float(self.high)
            except (TypeError, ValueError):
                raise ValidationError(f"parameter {self.name!r}: low and high must be numbers") from None
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
            ConfigSpace([self]).validate(Configuration({self.name: self.default}))

    @property
    def width(self) -> int:
        """Number of encoded coordinates this parameter occupies."""
        return len(self.categories) if self.kind == "categorical" else 1


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
        _columns(self, [config])


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


def _columns(space: ConfigSpace, configs, label: str | None = None) -> dict[str, np.ndarray]:
    """Raw columns of ``configs`` in the layout of ``_sample_arrays``, once
    each carries exactly the space's names with values in their domains
    (bools are not numbers). With a ``label``, a ``ValidationError`` names it
    and the first failing row of the first failing check, counted from 1."""
    where = lambda i: f"{label}: row {i + 1}: " if label else ""
    names = set(space.names)
    for i, c in enumerate(configs):
        if c.values.keys() != names:
            missing, extra = sorted(names - c.values.keys()), sorted(c.values.keys() - names)
            why = f"missing parameter(s): {missing}" if missing else f"has unknown parameter(s): {extra}"
            raise ValidationError(f"{where(i)}configuration {why}")
    numeric = (int, float, np.integer, np.floating)
    cols: dict[str, np.ndarray] = {}
    for p in space.params:
        values = [c.values[p.name] for c in configs]

        def fail(bad, why):
            i = int(np.argmax(bad))
            raise ValidationError(f"{where(i)}parameter {p.name!r}: {values[i]!r} {why}")

        if p.kind == "categorical":
            try:
                cols[p.name] = np.array([p.categories.index(v) for v in values], dtype=np.intp)
            except ValueError:
                fail([v not in p.categories for v in values], "is not a known category")
            continue
        if any(issubclass(t, bool) or not issubclass(t, numeric) for t in set(map(type, values))):
            fail([isinstance(v, bool) or not isinstance(v, numeric) for v in values], "is not numeric")
        col = np.array(values, dtype=float)
        if not (col.min() >= p.low and col.max() <= p.high):  # also false with a NaN
            fail(~((col >= p.low) & (col <= p.high)), f"outside [{p.low}, {p.high}]")
        if p.kind == "integer" and not (col == np.trunc(col)).all():
            fail(col != np.trunc(col), "is not an integer")
        cols[p.name] = col.astype(np.int64) if p.kind == "integer" else col
    return cols


@dataclass(frozen=True, eq=False)
class ConfigTable:
    """Distinct configurations of a space, stored once as arrays: the raw
    ``columns`` of ``_columns``, their (n, D) ``encoded`` matrix, and
    ``order``, the rows sorted by raw values, which ``index`` bisects. Only
    ``config`` builds a ``Configuration``."""

    space: ConfigSpace
    columns: dict[str, np.ndarray]
    encoded: np.ndarray
    order: np.ndarray

    @classmethod
    def from_configs(cls, space: ConfigSpace, configs, label: str = "configuration table") -> "ConfigTable":
        """Accept what ``space.validate`` accepts, with no two rows of equal raw
        columns (see ``_columns``; two distinct values may share an encoding).
        Errors name ``label`` and the row, from 1."""
        configs = list(configs)
        if not configs:
            raise ValidationError(f"{label} needs at least one row")
        cols = _columns(space, configs, label)
        order = np.lexsort([cols[name] for name in reversed(space.names)])
        repeat = np.logical_and.reduce([col[order[1:]] == col[order[:-1]] for col in cols.values()])
        if repeat.any():
            i = int(order[1:][repeat].min())
            raise ValidationError(f"{label} repeats the configuration {configs[i].values} at row {i + 1}")
        return cls(space, cols, _encode_arrays(space, cols, len(configs)), order)

    def __len__(self) -> int:
        return self.order.size

    def config(self, i: int) -> Configuration:
        return _config_from_arrays(self.space, self.columns, i)

    def index(self, config: Configuration) -> int:
        """The row whose raw values equal ``config``'s; ``KeyError`` if none."""
        values, row = config.values, lambda i: tuple(col[i] for col in self.columns.values())
        with contextlib.suppress(TypeError, ValueError):  # an unknown category or a non-number
            if values.keys() == self.columns.keys():
                raw = lambda p, v: p.categories.index(v) if p.kind == "categorical" else v
                key = tuple(raw(p, values[p.name]) for p in self.space.params)
                at = bisect.bisect_left(self.order, key, key=row)
                if at < len(self) and row(self.order[at]) == key:
                    return int(self.order[at])
        raise KeyError(f"{config.values} is not a row of the table")


def encode_batch(space: ConfigSpace, configs: list[Configuration]) -> np.ndarray:
    """Encode many configurations at once; returns an (n, encoded_dim) matrix.
    A configuration that fails ``space.validate`` raises its error."""
    return _encode_arrays(space, _columns(space, configs), len(configs))


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
    params = data.get("params") if isinstance(data, dict) else None
    if not isinstance(params, list) or not all(isinstance(entry, dict) for entry in params):
        raise ValidationError("space definition must be an object with a 'params' list of objects")
    for entry in params:
        if not isinstance(entry.get("categories", ()), (list, tuple)):
            raise ValidationError(f"parameter {entry.get('name')!r}: 'categories' must be a list")
    return ConfigSpace(
        ParamSpec(
            name=entry.get("name", ""),
            kind=entry.get("kind", ""),
            low=entry.get("low"),
            high=entry.get("high"),
            categories=tuple(entry.get("categories", ())),
            default=entry.get("default"),
        )
        for entry in params
    )

