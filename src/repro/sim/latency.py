"""Calibrated latency models.

The paper's timing behaviour comes from two places: per-API-call latency
(the diagnosis log excerpt shows individual checks taking ~70-90 ms) and
operation step durations (instance replacement "in the order of minutes").
These models reproduce those magnitudes.  Each model draws from its own
``random.Random`` stream so that adding a new latency consumer does not
perturb the draws of existing ones (determinism under extension).
"""

from __future__ import annotations

import math
import random


class LatencyModel:
    """Base class: a distribution over non-negative durations (seconds)."""

    def sample(self) -> float:
        raise NotImplementedError

    def percentile(self, q: float) -> float:
        """Analytic quantile (0 < q < 1): the paper's timeout calibration
        rule reads the 95th (§IV)."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Always the same duration; handy in unit tests."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError("latency must be non-negative")
        self.value = value

    def sample(self) -> float:
        return self.value

    def percentile(self, q: float) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantLatency({self.value})"


class UniformLatency(LatencyModel):
    """Uniform over [low, high]."""

    def __init__(self, low: float, high: float, seed: int = 0) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"invalid uniform bounds: [{low}, {high}]")
        self.low = low
        self.high = high
        self._rng = random.Random(seed)

    def sample(self) -> float:
        return self._rng.uniform(self.low, self.high)

    def percentile(self, q: float) -> float:
        return self.low + q * (self.high - self.low)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class LogNormalLatency(LatencyModel):
    """Log-normal latency — the canonical heavy-tailed model for RPCs.

    Parameterised by the *median* and a shape sigma, optionally truncated
    at ``cap`` to avoid pathological tails destabilising the evaluation.
    """

    def __init__(self, median: float, sigma: float, seed: int = 0, cap: float | None = None) -> None:
        if median <= 0:
            raise ValueError("median must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.median = median
        self.sigma = sigma
        self.cap = cap
        self._mu = math.log(median)
        self._rng = random.Random(seed)

    def sample(self) -> float:
        value = self._rng.lognormvariate(self._mu, self.sigma)
        if self.cap is not None:
            value = min(value, self.cap)
        return value

    def percentile(self, q: float) -> float:
        if not 0 < q < 1:
            raise ValueError("q must be in (0, 1)")
        from statistics import NormalDist

        z = NormalDist().inv_cdf(q)
        return math.exp(self._mu + self.sigma * z)

    def __repr__(self) -> str:
        return f"LogNormalLatency(median={self.median}, sigma={self.sigma})"


def aws_api_latency(seed: int = 0) -> LogNormalLatency:
    """Latency of a single cloud API call.

    Calibrated to the paper's diagnosis log excerpt, where consecutive
    on-demand checks complete in roughly 70-90 ms each, with occasional
    slow calls (retries against eventually-consistent endpoints push the
    tail towards seconds).
    """
    return LogNormalLatency(median=0.080, sigma=0.45, seed=seed, cap=5.0)


def instance_boot_latency(seed: int = 0) -> LogNormalLatency:
    """Time for the ASG to boot a replacement instance.

    The paper: replacement of one instance is "in the order of minutes".
    """
    return LogNormalLatency(median=95.0, sigma=0.25, seed=seed, cap=600.0)
