"""Tests for the one event kind, :class:`~repro.sim.engine.Timeout`."""

import pytest

from repro.sim.engine import Timeout


class TestEvent:
    def test_callbacks_run_on_dispatch(self, engine):
        timeout = engine.timeout(0.0)
        seen = []
        timeout.callbacks.append(seen.append)
        assert seen == []  # not yet dispatched
        engine.run()
        assert seen == [timeout]


class TestTimeout:
    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            Timeout(engine, -1.0)

    def test_nan_delay_rejected(self, engine):
        with pytest.raises(ValueError, match="must be >= 0"):
            engine.timeout(float("nan"))
        assert engine.peek() == float("inf")  # nothing was scheduled

    def test_fires_at_delay(self, engine):
        fired = []
        engine.timeout(5.0).callbacks.append(lambda _timeout: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]

    def test_zero_delay_fires_immediately(self, engine):
        fired = []
        engine.timeout(0.0).callbacks.append(lambda _timeout: fired.append(engine.now))
        engine.run()
        assert engine.now == 0.0
        assert fired == [0.0]
