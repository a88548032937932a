"""In-memory spans and the timing proxies the traced run wraps around hoqiga.

Spans are recorded only from the benchmark's side of each call into the
package, so the package itself carries no instrumentation.  Each span is a
row ``[name, start_ns, end_ns, parent, trace]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``trace`` indexes ``Tracer.traces``:
one ``(problem, algorithm, seed)`` entry per seeded run, plus one per problem
load, batch probe and harness pass.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter_ns

import numpy as np

from hoqiga import FitnessFunction, RandomSource

FIELDS = ("name", "start_ns", "end_ns", "parent", "trace")


class Tracer:
    """Keeps every span in memory until the benchmark writes them out."""

    def __init__(self):
        self.spans: list = []
        self.traces: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []  # parents of the spans still open
        self._parent = -1
        self._trace = -1

    def new_trace(self, label: tuple) -> None:
        self.traces.append(label)
        self._trace = len(self.traces) - 1

    @contextlib.contextmanager
    def span(self, name: str):
        row = [name, perf_counter_ns(), 0, self._parent, self._trace]
        self.spans.append(row)
        self._open.append(self._parent)
        self._parent = len(self.spans) - 1
        try:
            yield
        finally:
            row[2] = perf_counter_ns()
            self._parent = self._open.pop()

    def leaf(self, name: str, start: int, end: int) -> None:
        """Record a span with no children, timed by the caller."""
        self.spans.append((name, start, end, self._parent, self._trace))

    def durations(self) -> tuple[Counter[str], Counter[str], list[int]]:
        """Total ns and call count per span name, and self ns per span.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because calls are nested.
        """
        total: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own = [row[2] - row[1] - c for row, c in zip(self.spans, child)]
        return total, calls, own

    def to_json(self) -> dict:
        names = sorted({row[0] for row in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "fields": FIELDS,
            "names": names,
            "traces": self.traces,
            "spans": [[index[row[0]], *row[1:]] for row in self.spans],
        }


class TimedFitness(FitnessFunction):
    """Forwards to a problem and records a span per __call__ and per batch()."""

    def __init__(self, inner: FitnessFunction, tracer: Tracer):
        super().__init__(inner.size, inner.optimum, inner.name)
        self.inner = inner
        self.tracer = tracer

    def __call__(self, bits) -> float:
        start = perf_counter_ns()
        value = self.inner(bits)
        self.tracer.leaf("FitnessFunction.__call__", start, perf_counter_ns())
        return value

    def batch(self, bits2d: np.ndarray) -> np.ndarray:
        start = perf_counter_ns()
        values = self.inner.batch(bits2d)
        self.tracer.leaf("FitnessFunction.batch", start, perf_counter_ns())
        self.tracer.counts["batch_rows"] += len(bits2d)
        return values


class TimedRandomSource(RandomSource):
    """RandomSource whose uniforms() records a span; the draws are unchanged."""

    def __init__(self, seed: int, tracer: Tracer):
        super().__init__(seed)
        self.tracer = tracer

    def uniforms(self, n: int) -> np.ndarray:
        start = perf_counter_ns()
        draws = super().uniforms(n)
        self.tracer.leaf("RandomSource.uniforms", start, perf_counter_ns())
        return draws
