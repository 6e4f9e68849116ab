import pytest

from stats import percentile, quartiles, spread


def test_single_sample_is_every_percentile():
    assert percentile([7.0], 0.0) == percentile([7.0], 0.5) == percentile([7.0], 0.9) == 7.0
    assert spread([7.0]) == 0.0


def test_ten_samples_interpolate_between_neighbours():
    values = [float(v) for v in range(10, 0, -1)]  # 1..10, unsorted on purpose
    assert percentile(values, 0.5) == 5.5
    assert percentile(values, 0.9) == pytest.approx(9.1)
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 10.0


def test_eleven_samples_hit_order_statistics_exactly():
    values = [float(v) for v in range(11)]
    assert percentile(values, 0.5) == 5.0
    assert percentile(values, 0.9) == 9.0
    assert quartiles(values) == (2.5, 5.0, 7.5)
    assert spread(values) == 1.0


def test_eight_hundred_samples():
    values = [float(v) for v in range(800)]
    assert percentile(values, 0.9) == pytest.approx(719.1)
    assert percentile(values, 0.5) == 399.5


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)
