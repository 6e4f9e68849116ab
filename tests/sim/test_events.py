"""Tests for event primitives."""

import pytest

from repro.sim.engine import Engine
from repro.sim.events import AnyOf, Event, Timeout


class TestEvent:
    def test_initially_pending(self, engine):
        event = engine.event()
        assert not event.triggered
        assert not event.ok

    def test_succeed_carries_value(self, engine):
        event = engine.event()
        event.succeed("payload")
        assert event.triggered
        assert event.ok
        assert event.value == "payload"

    def test_double_succeed_rejected(self, engine):
        event = engine.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_carries_exception(self, engine):
        event = engine.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_fail_requires_exception_instance(self, engine):
        event = engine.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callbacks_run_on_dispatch(self, engine):
        event = engine.event()
        seen = []
        event.callbacks.append(seen.append)
        event.succeed()
        assert seen == []  # not yet dispatched
        engine.run()
        assert seen == [event]


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
        timeout = engine.timeout(5.0, value="tick")
        timeout.callbacks.append(lambda e: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]
        assert timeout.value == "tick"

    def test_zero_delay_fires_immediately(self, engine):
        timeout = engine.timeout(0.0)
        engine.run()
        assert engine.now == 0.0
        assert timeout.triggered


class TestAnyOf:
    def test_requires_events(self, engine):
        with pytest.raises(ValueError):
            AnyOf(engine, [])

    def test_fires_on_first(self, engine):
        slow = engine.timeout(10.0)
        fast = engine.timeout(2.0, value="fast")
        first = engine.any_of([slow, fast])
        engine.run(until=first)
        assert engine.now == 2.0
        assert fast in first.value

    def test_already_triggered_event(self, engine):
        done = engine.event()
        done.succeed("x")
        combined = engine.any_of([done, engine.timeout(100)])
        engine.run(until=combined)
        assert engine.now == 0.0
