"""Estimators: the percentile rule, medians of rounds, per-window rates."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def test_empty_sample_is_missing():
    assert stats.percentile([], 50) is None
    assert stats.percentile([], 99) is None
    assert stats.median([]) is None
    assert stats.median_rate([], []) is None


def test_tail_needs_ten_samples_beyond_it():
    assert stats.percentile(range(999), 99) is None
    assert stats.percentile(range(1000), 99) == pytest.approx(989.01)
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile(range(100), 90) is not None


def test_median_of_one_sample_is_that_sample():
    assert stats.percentile([7.5], 50) == 7.5


def test_linear_interpolation():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([4, 1, 3, 2], 0) == 1
    assert stats.percentile(list(range(101)), 90) == pytest.approx(90.0)


def test_median_rate_of_equal_rounds():
    # 100 units per round; round times 1, 2, 4 s -> rates 100, 50, 25.
    assert stats.median_rate([100, 100, 100], [1.0, 2.0, 4.0]) == 50.0
    # A zero-length round carries no rate.
    assert stats.median_rate([100, 100], [0.0, 2.0]) == 50.0


def test_window_rates_drop_the_partial_window():
    times = [0.5, 1.5, 2.5, 2.6, 3.1, 9.0]
    # Windows [0,2) and [2,4) only; 9.0 and anything before start are outside.
    assert stats.window_rates(times, 0.0, 5.0, 2.0) == [1.0, 1.5]
    assert stats.window_rates([-1.0] + times, 0.0, 1.0, 2.0) == []


def test_digest_is_order_insensitive_for_keys_and_exact_for_floats():
    assert stats.digest({"a": 1, "b": 0.1}) == stats.digest({"b": 0.1, "a": 1})
    assert stats.digest({"a": 0.1}) != stats.digest({"a": math.nextafter(0.1, 1.0)})
