"""Account limits and API rate limiting.

Two of the paper's observed failure classes originate here:

- the shared AWS account's *instance limit* being exhausted by the second,
  independent team (wrong-diagnosis class 4 in §VI.A);
- API *call limits imposed on a specific region of a single account*
  (§V.A), which surface as ``Throttling`` errors the consistent-API layer
  must absorb with exponential retry.
"""

from __future__ import annotations

import dataclasses

#: The region's API call limit: at most this many calls within any
#: sliding window of ``RATE_WINDOW`` seconds.
MAX_CALLS_PER_WINDOW = 1000
RATE_WINDOW = 1.0


@dataclasses.dataclass
class AccountLimits:
    """Per-region account quota configuration."""

    #: Maximum simultaneously active (pending or running) instances.
    max_instances: int = 40


class RateLimiter:
    """Sliding-window API rate limiter.

    Deterministic and cheap: keeps only call timestamps inside the current
    window.  Shared between all users of the account — this is what lets a
    simulated 'second team' starve the primary team of API throughput.
    """

    def __init__(self) -> None:
        self._timestamps: list[float] = []

    def try_acquire(self, now: float) -> bool:
        """Record one call at ``now``; False means the caller is throttled."""
        window_start = now - RATE_WINDOW
        self._timestamps = [t for t in self._timestamps if t > window_start]
        if len(self._timestamps) >= MAX_CALLS_PER_WINDOW:
            return False
        self._timestamps.append(now)
        return True
