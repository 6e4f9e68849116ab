"""Sliding-window RateLimiter edge cases (window boundary exactness)."""

from repro.cloud.limits import MAX_CALLS_PER_WINDOW, RateLimiter


def full_at(t):
    """A limiter whose window is full of calls made at ``t``."""
    lim = RateLimiter()
    for _ in range(MAX_CALLS_PER_WINDOW):
        assert lim.try_acquire(t)
    return lim


class TestWindowBoundary:
    def test_call_exactly_one_window_old_is_pruned(self):
        """The window is half-open: a call at t is outside the window at
        exactly t + RATE_WINDOW (strict `>` pruning)."""
        lim = full_at(0.0)
        assert lim.try_acquire(1.0)  # the t=0 calls just fell out

    def test_call_inside_window_by_epsilon_still_counts(self):
        lim = full_at(0.0)
        assert not lim.try_acquire(1.0 - 1e-9)

    def test_denied_calls_are_not_recorded(self):
        """A throttled call must not extend the window occupancy."""
        lim = full_at(0.0)
        for t in (0.2, 0.4, 0.6, 0.8):
            assert not lim.try_acquire(t)
        # Only the t=0 grants occupy the window; they expire at 1.0.
        assert lim.try_acquire(1.0)
        # The t=1.0 grant is the window's one call: all other slots are free.
        for _ in range(MAX_CALLS_PER_WINDOW - 1):
            assert lim.try_acquire(1.0)
        assert not lim.try_acquire(1.0)
