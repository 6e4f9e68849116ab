"""Tests for latency models."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.latency import (
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
    aws_api_latency,
    instance_boot_latency,
)


class TestConstantLatency:
    def test_sample_is_constant(self):
        model = ConstantLatency(0.5)
        assert model.sample() == 0.5
        assert model.percentile(0.05) == model.percentile(0.95) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)


class TestUniformLatency:
    def test_bounds_respected(self):
        model = UniformLatency(1.0, 2.0, seed=1)
        samples = [model.sample() for _ in range(200)]
        assert all(1.0 <= s <= 2.0 for s in samples)

    def test_mean(self):
        # The mean of a uniform is its median; the quantiles are linear.
        model = UniformLatency(1.0, 3.0)
        assert model.percentile(0.5) == 2.0
        assert model.percentile(0.95) == pytest.approx(2.9)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)

    def test_seeded_determinism(self):
        a = UniformLatency(0, 1, seed=7)
        b = UniformLatency(0, 1, seed=7)
        assert [a.sample() for _ in range(10)] == [b.sample() for _ in range(10)]


class TestLogNormalLatency:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LogNormalLatency(median=0, sigma=0.5)
        with pytest.raises(ValueError):
            LogNormalLatency(median=1, sigma=-0.1)

    def test_cap_enforced(self):
        model = LogNormalLatency(median=1.0, sigma=2.0, seed=3, cap=1.5)
        assert all(model.sample() <= 1.5 for _ in range(500))

    def test_median_roughly_right(self):
        model = LogNormalLatency(median=0.08, sigma=0.45, seed=5)
        samples = sorted(model.sample() for _ in range(4001))
        observed_median = samples[2000]
        assert 0.06 < observed_median < 0.10

    def test_analytic_percentile_monotone(self):
        model = LogNormalLatency(median=1.0, sigma=0.5)
        assert model.percentile(0.5) == pytest.approx(1.0)
        assert model.percentile(0.95) > model.percentile(0.5) > model.percentile(0.05)

    def test_percentile_bounds(self):
        model = LogNormalLatency(median=1.0, sigma=0.5)
        with pytest.raises(ValueError):
            model.percentile(0.0)
        with pytest.raises(ValueError):
            model.percentile(1.0)

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_mean_at_least_median(self, median, sigma):
        # For a log-normal, mean = exp(mu + sigma^2/2) >= median = exp(mu).
        model = LogNormalLatency(median=median, sigma=sigma)
        mean = math.exp(math.log(median) + sigma**2 / 2)
        assert mean >= model.percentile(0.5) * 0.999

    @pytest.mark.parametrize("median, sigma", [(0.08, 0.45), (1.0, 0.25)])
    def test_sampled_mean_matches_the_analytic_mean(self, median, sigma):
        model = LogNormalLatency(median=median, sigma=sigma, seed=11)
        sampled = statistics.fmean(model.sample() for _ in range(20000))
        assert sampled == pytest.approx(math.exp(math.log(median) + sigma**2 / 2), rel=0.02)


class TestCalibratedModels:
    def test_api_latency_is_fast(self):
        model = aws_api_latency(seed=1)
        mean = statistics.fmean(model.sample() for _ in range(2000))
        assert 0.05 < mean < 0.2

    def test_boot_latency_is_minutes_scale(self):
        model = instance_boot_latency(seed=1)
        mean = statistics.fmean(model.sample() for _ in range(2000))
        assert 60 < mean < 180
