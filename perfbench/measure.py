"""Arithmetic of the benchmark: summaries, the accuracy band and spans.

Pure Python with no dependency on the library under test, so the harness's
own numbers can be unit-tested (see test_measure.py).
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return math.fsum(values) / len(values)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2


def tail_percentile(values) -> tuple[int, float] | None:
    """The highest whole percentile that leaves at least ten samples above it.

    Returns (percentile, value) by nearest rank, or None when fewer than 11
    samples leave no such percentile above the median.
    """
    n = len(values)
    pct = (100 * (n - 10)) // n if n > 10 else 0
    if pct <= 50:
        return None
    rank = math.ceil(pct * n / 100)
    return pct, float(sorted(values)[rank - 1])


def within_band(log_estimate: float, log_truth: float, epsilon: float) -> bool:
    """True when the estimate lies within a factor 1 + epsilon of the truth."""
    return math.isfinite(log_estimate) and abs(log_estimate - log_truth) <= math.log1p(epsilon)


def coverage(log_estimates, log_truths, epsilon: float) -> float:
    hits = [within_band(e, t, epsilon) for e, t in zip(log_estimates, log_truths, strict=True)]
    if not hits:
        raise ValueError("coverage of no estimates")
    return sum(hits) / len(hits)


@dataclass(frozen=True)
class Span:
    """One timed call: ``estimate`` groups the spans of one estimate."""

    name: str
    start: float
    end: float
    parent: int | None
    estimate: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it that its children cover.

    Children are clipped to the span and overlapping children count once.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
        reach = max(reach, min(child.end, span.end))
    return span.seconds - covered


class Tracer:
    """Spans kept in memory, nested by the order in which they open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.estimate = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        start = time.perf_counter()
        self.spans.append(Span(name, start, start, parent, self.estimate))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index] = Span(name, start, time.perf_counter(), parent, self.estimate)

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def last(self, name: str) -> int:
        """Index of the most recent span with this name."""
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index].name == name:
                return index
        raise KeyError(name)

