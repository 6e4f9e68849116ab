"""``SimClock.render`` is byte-identical to the datetime/strftime oracle."""

import datetime
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import DEFAULT_EPOCH, SimClock

from .reference_render import reference_render

DAY = 86_400.0
#: Anchors that put a short run across a midnight, a month end, a leap
#: day and a year end; the last carries microseconds that round up into
#: the next millisecond, second and day.
EPOCHS = [
    DEFAULT_EPOCH,
    datetime.datetime(2013, 11, 19, 23, 59, 58),
    datetime.datetime(2014, 1, 31, 23, 59, 59, 999_000),
    datetime.datetime(2016, 2, 28, 23, 0, 0),
    datetime.datetime(2013, 12, 31, 23, 59, 59, 999_999),
    datetime.datetime(2020, 6, 15, 7, 8, 9, 123_456),
]


def assert_same(clock: SimClock, times) -> None:
    for t in times:
        assert clock.render(t) == reference_render(clock.epoch, t), (clock.epoch, repr(t))


def neighbours(t: float, steps: int = 3):
    """``t`` and the floats just below and above it."""
    low = high = t
    yield t
    for _ in range(steps):
        low, high = math.nextafter(low, -math.inf), math.nextafter(high, math.inf)
        yield low
        yield high


@pytest.mark.parametrize("epoch", EPOCHS, ids=lambda e: e.isoformat())
class TestRenderEqualsTheOracle:
    def test_seeded_times_of_a_campaign(self, epoch):
        """Uniform over a long run plus log-normal tails (API latencies
        summed from zero), then sorted, so the date prefix is reused the
        way a monotone clock reuses it.  10⁵ times on the default epoch,
        10⁴ on each of the others."""
        n = 100_000 if epoch is DEFAULT_EPOCH else 10_000
        rng = random.Random(2014)
        times = [rng.uniform(0.0, 3e5) for _ in range(n * 7 // 10)]
        times += [rng.lognormvariate(0.0, 3.0) for _ in range(n * 3 // 10)]
        clock = SimClock(epoch=epoch)
        assert_same(clock, times)
        assert_same(clock, sorted(times)[::10])

    def test_millisecond_and_half_millisecond_boundaries(self, epoch):
        """Where truncation to milliseconds and ``timedelta``'s half-even
        microsecond rounding could part ways: ``k.0005``, ``k.0009995``,
        whole seconds, and the floats on either side of each."""
        rng = random.Random(7)
        clock = SimClock(epoch=epoch)
        assert_same(clock, [0.0, 0.0005, 0.001, 0.9995, 0.9999995, 1.0, 59.9999995])
        for _ in range(1_000):
            whole = rng.choice([0, 1, 59, 60, 3_599, 3_600, 86_399, 86_400, 123_456,
                                rng.randrange(300_000)])
            millis = rng.randrange(1_000)
            for tail in (0.0, 0.0000005, 0.0005, 0.0009995, 0.0009999995):
                assert_same(clock, neighbours(whole + millis / 1_000 + tail))

    def test_day_month_and_year_rollover(self, epoch):
        clock = SimClock(epoch=epoch)
        to_midnight = (
            datetime.datetime.combine(epoch.date() + datetime.timedelta(days=1), datetime.time())
            - epoch
        ).total_seconds()
        for days in (0, 1, 11, 12, 30, 42, 43, 365, 366, 1_461):
            for t in neighbours(to_midnight + days * DAY):
                # Forwards over the boundary, then back: the remembered
                # prefix must follow the day both ways.
                assert_same(clock, [t - 0.002, t - 0.001, t - 0.0005, t, t + 0.0005, t + 0.001])
                assert_same(clock, [t + 1.0, t - 1.0, t + DAY, t])

    def test_now_is_the_default_time(self, epoch):
        clock = SimClock(epoch=epoch)
        for t in (0.0, 61.25, DAY - 0.0004, 40 * DAY + 0.0005):
            clock.advance_to(t)
            assert clock.render() == reference_render(epoch, t)


@settings(max_examples=300, deadline=None)
@given(
    epoch=st.datetimes(
        min_value=datetime.datetime(1971, 1, 1), max_value=datetime.datetime(2999, 1, 1)
    ),
    times=st.lists(
        st.floats(min_value=-1e6, max_value=1e9, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=20,
    ),
)
def test_any_epoch_any_time_any_order(epoch, times):
    assert_same(SimClock(epoch=epoch), times)
