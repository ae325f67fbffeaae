"""Tests for the claim rule, the no-regression verdict and the bytecode
step of benchmarks/perfbench_pairs.py."""

import importlib.util
import pathlib

import pytest

from benchmarks.perfbench_pairs import compile_checkout, judge, quartiles, regression


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


def test_regression_ok_within_bound():
    parent = [100.0 + i for i in range(10)]
    change = [110.0 + i for i in range(10)]
    assert regression(parent, change, "lower", 0.25) == "ok"
    assert regression(parent, parent, "higher", 0.2) == "ok"


def test_regression_worse_past_bound():
    parent = [100.0 + i for i in range(10)]
    assert regression(parent, [140.0 + i for i in range(10)], "lower", 0.25) == "worse"
    assert regression(parent, [60.0 + i for i in range(10)], "higher", 0.25) == "worse"


def test_regression_unresolved_when_either_side_spreads_past_bound():
    steady = [100.0] * 10
    wide = [60.0, 140.0] * 5
    assert regression(wide, steady, "lower", 0.25) == "unresolved"
    assert regression(steady, wide, "lower", 0.25) == "unresolved"
    # Even a change median far past the bound stays unresolved.
    assert regression(steady, [200.0, 400.0] * 5, "lower", 0.25) == "unresolved"


def test_regression_ok_when_every_change_run_beats_every_parent_run():
    parent = [100.0, 200.0] * 5
    change = [p - 150.0 + 40.0 for p in parent]
    assert max(change) < min(parent)
    assert regression(parent, change, "lower", 0.25) == "ok"
    assert regression([1.0, 2.0] * 5, [3.0, 6.0] * 5, "higher", 0.1) == "ok"


def test_regression_of_zero_medians():
    assert regression([0.0] * 4, [0.0] * 4, "lower", 0.1) == "ok"
    assert regression([0.0] * 4, [1.0] * 4, "lower", 0.1) == "worse"


def test_compile_checkout_writes_bytecode_of_src_and_perfbench(tmp_path):
    sources = [
        tmp_path / "src" / "pkg" / "mod.py",
        tmp_path / "perfbench" / "run.py",
    ]
    other = tmp_path / "benchmarks" / "bench.py"
    for path in [*sources, other]:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("VALUE = 1\n")
    compile_checkout(tmp_path)
    for path in sources:
        assert pathlib.Path(importlib.util.cache_from_source(str(path))).exists()
    assert not pathlib.Path(importlib.util.cache_from_source(str(other))).exists()
