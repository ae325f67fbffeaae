"""Tests for the claim rule of benchmarks/perfbench_pairs.py."""

import pytest

from benchmarks.perfbench_pairs import judge, quartiles


def test_quartiles_interpolate_linearly():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)


def test_clear_win_on_lower_metric_holds():
    parent = [400.0 + i for i in range(10)]
    change = [360.0 + i for i in range(10)]
    verdict = judge(parent, change, "lower")
    assert verdict["wins"] == 10
    assert verdict["gain"] == pytest.approx(40.0)
    assert verdict["holds"]


def test_win_inside_parent_spread_does_not_hold():
    parent = [300.0, 400.0] * 5
    change = [p - 5.0 for p in parent]
    verdict = judge(parent, change, "lower")
    assert verdict["wins"] == 10
    assert verdict["parent_iqr"] == pytest.approx(100.0)
    assert not verdict["holds"]


def test_ties_count_for_neither_and_need_nine_tenths():
    parent = [10.0] * 10
    change = [20.0] * 8 + [10.0, 5.0]
    verdict = judge(parent, change, "higher")
    assert verdict["wins"] == 8
    assert not verdict["holds"]
    assert judge(parent, [20.0] * 9 + [10.0], "higher")["holds"]
