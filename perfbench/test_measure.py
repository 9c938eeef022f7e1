"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import math
import statistics

import pytest

from measure import (
    Span,
    Tracer,
    coverage,
    median,
    quartile_spread,
    self_time,
    tail_percentile,
    within_band,
)


def test_band_edge_is_inside_and_just_past_is_outside():
    band = math.log1p(0.1)
    assert within_band(band, 0.0, 0.1)
    assert within_band(-band, 0.0, 0.1)
    assert not within_band(band * (1 + 1e-9), 0.0, 0.1)
    assert not within_band(-band * (1 + 1e-9), 0.0, 0.1)


def test_band_rejects_non_finite_estimates():
    assert not within_band(math.nan, 0.0, 0.1)
    assert not within_band(math.inf, math.inf, 0.1)


def test_coverage_is_the_share_inside_the_band():
    truths = [0.5, 0.5, 0.5, 0.5]
    estimates = [0.5, 0.5 + 0.09, 0.5 - 0.2, math.nan]
    assert coverage(estimates, truths, 0.1) == 0.5


def test_coverage_needs_matching_lengths():
    with pytest.raises(ValueError):
        coverage([0.1, 0.2], [0.1], 0.1)


def test_median_of_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_leaves_ten_samples_above():
    values = [float(i) for i in range(1, 69)]
    pct, value = tail_percentile(values)
    assert pct == 85
    assert sum(v > value for v in values) == 10
    assert tail_percentile(values[:20]) is None
    pct, value = tail_percentile([float(i) for i in range(1, 1001)])
    assert (pct, value) == (99, 990.0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 4.0, 4.5, 5.0, 6.0, 7.0, 9.0, 10.0, 12.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartile_spread([2.0] * 10) == 0.0


def span(start, end, parent=None):
    return Span("s", start, end, parent, 0)


def test_self_time_subtracts_children():
    parent = span(0.0, 10.0)
    assert self_time(parent, []) == 10.0
    assert self_time(parent, [span(1.0, 3.0), span(5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlap_once_and_clips_to_the_span():
    parent = span(0.0, 10.0)
    children = [span(2.0, 5.0), span(4.0, 6.0), span(-1.0, 1.0), span(9.0, 12.0)]
    # Covered: [0,1] + [2,6] + [9,10] = 6.
    assert self_time(parent, children) == pytest.approx(4.0)


def test_self_time_of_a_nested_child_inside_another():
    parent = span(0.0, 10.0)
    assert self_time(parent, [span(1.0, 8.0), span(2.0, 3.0)]) == pytest.approx(3.0)


def test_tracer_nests_spans_and_groups_them_by_estimate():
    tracer = Tracer()
    tracer.estimate = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer = tracer.last("outer")
    children = tracer.children(outer)
    assert [c.name for c in children] == ["inner", "inner"]
    assert all(s.estimate == 7 for s in tracer.spans)
    assert tracer.spans[tracer.last("inner")] is children[-1]
    parent = tracer.spans[outer]
    assert all(parent.start <= c.start <= c.end <= parent.end for c in children)
    assert 0.0 <= self_time(parent, children) <= parent.seconds
