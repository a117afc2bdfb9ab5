"""Percentile, geometric-mean and spread math."""

import math
import statistics

import pytest

from bench.stats import geomean, median, percentile, quartiles, spread


def test_percentile_interpolates_between_ranks():
    values = [10, 20, 30, 40]
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == 25
    assert percentile(values, 95) == pytest.approx(38.5)


def test_percentile_ignores_input_order():
    assert percentile([3, 1, 2], 50) == percentile([1, 2, 3], 50) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_median_of_even_sample_is_the_midpoint():
    assert median([1, 2, 3, 10]) == 2.5


def test_geomean():
    assert geomean([1, 100]) == pytest.approx(10)
    assert geomean([5]) == pytest.approx(5)
    assert geomean([2, 8, 4]) == pytest.approx(4)


def test_geomean_is_scale_equivariant():
    values = [1.5, 20.0, 300.0]
    assert geomean([2 * v for v in values]) == pytest.approx(
        2 * geomean(values))


def test_geomean_rejects_nonpositive_and_empty():
    with pytest.raises(ValueError):
        geomean([1, 0])
    with pytest.raises(ValueError):
        geomean([])


def test_quartiles_match_the_statistics_module():
    values = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_spread_is_quartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([3.0, 3.0, 3.0]) == 0.0
    assert math.isinf(spread([-1.0, 0.0, 0.0, 1.0]))
