"""In-memory spans and call counters for the traced runs.

A span records a name, a start, an end, the index of its parent span and
the operation it belongs to. Spans stay in memory until :meth:`Tracer.fold`
turns them into per-name totals, where a span's self time is its duration
minus the time covered by its direct children. Wrappers are installed by
rebinding a name in a module's namespace, so calls that the package makes
through that name are seen too; :meth:`Tracer.restore` undoes every
rebinding.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self._bound: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = perf()

    def span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def rebind(self, module, attr: str, wrapper) -> None:
        self._bound.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def rebind_everywhere(self, modules, original, wrapper) -> None:
        """Rebind every name bound to ``original`` in the given modules."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.rebind(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._bound):
            setattr(module, attr, value)
        self._bound.clear()

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
        self.spans.clear()
        self.op += 1

    def merge(self, totals: dict) -> None:
        for name, (calls, total, self_s) in totals.items():
            entry = self.totals[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s

    def per_call(self, name: str, scale: float = 1.0, self_time: bool = False) -> float:
        """Mean duration (or self time) per call of ``name``, times ``scale``."""
        calls, total, own = self.totals.get(name, (0, 0.0, 0.0))
        return (own if self_time else total) / calls * scale if calls else 0.0

    def table(self) -> dict:
        return {
            name: {"calls": c, "total_ms": round(t * 1e3, 3), "self_ms": round(s * 1e3, 3)}
            for name, (c, t, s) in sorted(self.totals.items())
        }
