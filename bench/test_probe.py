"""Reference-speed conversion from probe samples."""

import pytest

from bench.probe import REFERENCE_KERNEL_S, reference_seconds, speed


def _samples(times, kernel_s):
    return [(t, kernel_s) for t in times]


def test_reference_speed_reads_one():
    samples = _samples([0.0, 0.05, 0.1], REFERENCE_KERNEL_S)
    assert speed(samples, 0.0, 0.1) == pytest.approx(1.0)
    assert reference_seconds(samples, 0.0, 0.1) == pytest.approx(0.1)


def test_half_speed_halves_reference_seconds():
    samples = _samples([0.0, 0.5, 1.0], 2 * REFERENCE_KERNEL_S)
    assert reference_seconds(samples, 0.0, 1.0) == pytest.approx(0.5)


def test_speed_is_the_mean_over_the_window():
    samples = [(0.0, REFERENCE_KERNEL_S), (1.0, REFERENCE_KERNEL_S / 3),
               (9.0, REFERENCE_KERNEL_S / 100)]
    assert speed(samples, 0.0, 1.0, window=0.1) == pytest.approx(2.0)


def test_window_widens_until_it_holds_a_sample():
    samples = [(10.0, REFERENCE_KERNEL_S / 2)]
    assert speed(samples, 0.0, 0.001, window=0.1) == pytest.approx(2.0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        speed([], 0.0, 1.0)
