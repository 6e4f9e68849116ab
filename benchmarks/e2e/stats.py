"""Order statistics used by the runner and by ``compare.py``.

Every percentile is reported next to its sample count, so a reader can
tell a p90 over 800 ops from one over 8.
"""

from __future__ import annotations

import math
import typing as _t


def percentile(values: _t.Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1]).

    The position is ``(n - 1) * fraction`` on the sorted sample, so
    n = 1 returns the only value and the 0th/100th percentiles are the
    minimum and maximum.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction!r} outside [0, 1]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: _t.Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    return percentile(values, 0.25), percentile(values, 0.5), percentile(values, 0.75)


def spread(values: _t.Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    low, median, high = quartiles(values)
    return (high - low) / median if median else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 where there was nothing to divide by."""
    return numerator / denominator if denominator else 0.0
