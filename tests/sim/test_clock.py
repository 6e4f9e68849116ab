"""Tests for the virtual clock."""

import datetime

import pytest

from repro.sim.clock import EPOCH, SimClock

from .reference_render import clock_render


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_advance_to_moves_forward(self):
        clock = SimClock()
        clock.advance_to(12.5)
        assert clock.now() == 12.5

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(9.0)

    def test_advance_to_same_time_allowed(self):
        clock = SimClock()
        clock.advance_to(5.0)
        clock.advance_to(5.0)
        assert clock.now() == 5.0

    def test_default_epoch_matches_paper_era(self):
        assert EPOCH == datetime.datetime(2013, 11, 19, 11, 0, 0)

    def test_render_format_is_log4j_style(self):
        clock = SimClock()
        rendered = clock_render(clock)
        # e.g. "2013-11-19 11:00:00,000"
        datetime.datetime.strptime(rendered.rsplit(",", 1)[0], "%Y-%m-%d %H:%M:%S")
        assert rendered.endswith(",000")

    def test_render_reflects_elapsed_time(self):
        clock = SimClock()
        clock.advance_to(61.25)
        assert clock_render(clock) == "2013-11-19 11:01:01,250"

    def test_render_explicit_time(self):
        clock = SimClock()
        assert clock_render(clock, 0.5).endswith(",500")

    def test_repr_contains_time(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert "3.000" in repr(clock)
