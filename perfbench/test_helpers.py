"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_helpers.py
"""

import math
import types

import pytest

from measures import param_error, scaled_by_reference, tail_percentile
from spans import Span, Tracer, self_times


def _span(sid, start, end, parent=None, name="s"):
    return Span(sid, name, start, end, parent, 1)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),
        _span(3, 5.0, 7.0, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: pytest.approx(5.0), 1: pytest.approx(2.0),
                   2: pytest.approx(1.0), 3: pytest.approx(2.0)}


def test_self_time_clips_and_merges_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 5.0, parent=0),   # overlaps the first child
        _span(3, 8.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_busy_time_counts_outermost_span_of_a_name():
    tracer = Tracer()
    tracer.pass_id = 1
    tracer.spans = [
        Span(0, "x", 0.0, 10.0, None, 1),
        Span(1, "x", 1.0, 3.0, 0, 1),
        Span(2, "y", 4.0, 6.0, 0, 1),
    ]
    pm = tracer.pass_metrics(1)
    assert pm["calls"] == {"x": 2, "y": 1}
    assert pm["busy_s"]["x"] == pytest.approx(10.0)
    assert pm["self_s"]["x"] == pytest.approx(6.0 + 2.0)


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 90.0), (100, 90.0), (20, 50.0), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_param_error_hand_computed():
    estimates = [[1.0, 2.0, 9.0], [3.0, 2.0, -9.0]]
    truth = [1.0, 0.0, 0.0]
    mask = [True, True, False]
    # squared errors over the mask: 0 + 4 = 4 and 4 + 4 = 8; RMS = sqrt(6)
    assert param_error(estimates, truth, mask) == pytest.approx(math.sqrt(6.0))
    assert param_error([1.0, 3.0, 0.0], truth, mask) == pytest.approx(3.0)


def test_scaling_uses_the_reference_times_around_each_segment():
    # segment 0 ran while the reference took 0.2 then 0.4 s (mean 0.3),
    # segment 1 while it took 0.4 then 0.6 s (mean 0.5)
    scaled = scaled_by_reference([3.0, 5.0], [0.2, 0.4, 0.6], nominal=0.3)
    assert scaled == pytest.approx([3.0, 3.0])
    with pytest.raises(ValueError):
        scaled_by_reference([1.0], [0.3], nominal=0.3)


def test_patch_records_spans_and_counts_then_restores():
    owner = types.SimpleNamespace(f=lambda n: list(range(n)))
    original = owner.f
    tracer = Tracer()
    tracer.patch(owner, "f", "layer.f", lambda a, k, r: {"items": len(r)})
    tracer.pass_id = 1
    owner.f(3)
    owner.f(4)
    tracer.unpatch()
    assert owner.f is original
    pm = tracer.pass_metrics(1)
    assert pm["calls"] == {"layer.f": 2}
    assert pm["counts"] == {"layer.f.items": 7}
