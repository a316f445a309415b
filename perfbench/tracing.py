"""In-memory spans recorded around calls into the library's layers.

A span is ``[name, start, end, parent]`` with times from ``time.perf_counter``
in seconds and ``parent`` the index of the enclosing span (-1 at top level).
The library runs single-threaded, so the spans of one pass nest strictly and
a span's self time is its duration minus the durations of its direct children.

Every traced function is wrapped at the name its caller looks it up by:
``transfer`` binds ``minimize_on_simplex`` at import, so it is patched on
``transfer``, not on ``ranking``; ``GpSurrogate.predict`` is patched on the
class; ``bo.run`` finds ``suggest``/``observe``/``expected_improvement`` as
module globals of ``bo``.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def trace_points(tlbo, full: bool):
    """``(owner, attribute, span name, counters)`` for every wrapped call.

    ``counters(args, result)`` returns ``{suffix: amount}`` added to the
    span's counters after the call. Without ``full`` only the calls that the
    end-to-end metrics need are wrapped: one BO run, one suggestion and one
    observation (which includes the target GP refit).
    """
    bench, bo, gp, space, transfer = tlbo.bench, tlbo.bo, tlbo.gp, tlbo.space, tlbo.transfer

    def fit_failed(args, state):
        return {"fit_failed": int(state.target_gp is None)}

    points = [
        (bo, "run", "bo.run", None),
        (bo, "suggest", "bo.suggest", None),
        (bo, "observe", "bo.observe", fit_failed),
    ]
    if not full:
        return points
    return points + [
        (bench, "run_static", "bench.run_static", None),
        (bench, "build_static_sources", "bench.build_static_sources", None),
        (bo, "expected_improvement", "bo.expected_improvement", lambda a, r: {"rows": int(getattr(a[0], "size", 1))}),
        (gp, "fit", "gp.fit", lambda a, r: {"rows": _rows(a[0])}),
        (gp, "condition", "gp.condition", lambda a, r: {"rows": _rows(a[0])}),
        (gp.GpSurrogate, "predict", "gp.predict", lambda a, r: {"rows": _rows(a[1])}),
        (space, "encode_batch", "space.encode_batch", lambda a, r: {"rows": len(a[1])}),
        (transfer, "minimize_on_simplex", "ranking.minimize_on_simplex",
         lambda a, r: {"pairs": int(a[0].pairs[0].size)}),
        (transfer, "learn_source_weights", "transfer.learn_source_weights", None),
        (transfer, "learn_phase2_weights", "transfer.learn_phase2_weights", None),
        (transfer, "assemble_phase2_matrix", "transfer.assemble_phase2_matrix", None),
        (transfer, "tl_predict", "transfer.tl_predict", lambda a, r: {"rows": _rows(a[1])}),
    ]


class Tracer:
    """Records spans and counters for the functions it wraps."""

    def __init__(self, error_types=()):
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._error_types = tuple(error_types)

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._error_types:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counters is not None:
                for suffix, amount in counters(args, result).items():
                    self.counters[f"{name}.{suffix}"] += amount
            return result

        return traced

    @contextmanager
    def installed(self, points):
        """Patch every trace point for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, counters in points:
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, counters))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def named(self, name) -> list[list]:
        return [s for s in self.spans if s[0] == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child_s[i]) * 1e3
        return out

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def trial_ms(self) -> list[float]:
        """Optimizer cost of each post-initialization trial: the suggestion
        plus the observation (GP refit) that follows it."""
        out = []
        pending = None
        for name, start, end, _ in self.spans:
            if name == "bo.suggest":
                pending = (end - start) * 1e3
            elif name == "bo.observe":
                if pending is not None:
                    out.append(pending + (end - start) * 1e3)
                pending = None
            elif name == "bo.run":
                pending = None
        return out
