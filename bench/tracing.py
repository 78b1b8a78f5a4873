"""Spans around the calls the benchmark makes into polybox.

Untraced runs hand the workloads the polybox modules themselves, so
nothing is wrapped.  A traced run hands them a ``Layer`` per module
instead, whose functions record one span per call, and wraps
``iso.Group.orbit`` at class level, since ``dedup_orbits`` calls it from
inside the package.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as (name, start, end, index of the enclosing span or -1)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append((name, 0.0, 0.0, parent))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            index = self._stack.pop()
            self.spans[index] = (name, start, end, parent)


def totals(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Busy seconds and call counts per span name."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, _ in spans:
        busy[name] += end - start
        calls[name] += 1
    return busy, calls


def top_level_busy(spans) -> float:
    """Seconds inside spans that no other span encloses."""
    return sum(end - start for _, start, end, parent in spans if parent == -1)


class Layer:
    """A module whose functions are traced as ``<module>.<function>``."""

    def __init__(self, module, tracer: Tracer) -> None:
        self._module = module
        self._tracer = tracer
        self._layer = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if not callable(fn) or isinstance(fn, type):
            return fn
        name = f"{self._layer}.{attr}"
        return lambda *args, **kwargs: self._tracer.call(name, fn, *args, **kwargs)


@contextmanager
def traced(modules: dict, tracer: Tracer):
    """Layers for every module, with ``Group.orbit`` wrapped meanwhile."""
    group = modules["iso"].Group
    orbit = group.orbit

    def traced_orbit(self, code):
        images = tracer.call("iso.Group.orbit", orbit, self, code)
        tracer.counts["iso.orbit_codes"] += len(images)
        return images

    group.orbit = traced_orbit
    try:
        yield {name: Layer(module, tracer) for name, module in modules.items()}
    finally:
        group.orbit = orbit
