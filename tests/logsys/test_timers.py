"""Tests for the watchdog, the one timer POD arms (§III.B.3)."""

import pytest

from repro.logsys.record import LogRecord
from repro.logsys.timers import TimerSetter


def tagged(message, step, trace="t1", time=0.0):
    return LogRecord(time=time, source="s", message=message, tags=[f"step:{step}", f"trace:{trace}"])


def watchdog(engine, expiries, interval=20.0, slack=0.0):
    """Started by ``begin``, stopped by ``finish``, re-armed by ``step``;
    each expiry lands in ``expiries`` as ``(time, trace)``."""
    return TimerSetter(
        engine,
        start_activity="begin",
        end_activity="finish",
        align_activities=("step",),
        interval=interval,
        slack=slack,
        on_timeout=lambda trace: expiries.append((engine.now, trace)),
    )


def observe_at(engine, setter, time, record):
    def feed():
        yield engine.timeout(time - engine.now)
        setter.observe(record)

    engine.process(feed())


class TestPeriodicTimer:
    """Unkicked, the watchdog fires every ``interval``."""

    def test_fires_every_interval(self, engine):
        expiries = []
        setter = watchdog(engine, expiries, interval=10.0)
        setter.observe(tagged("op begins", "begin"))
        engine.run(until=35)
        assert expiries == [(10.0, "t1"), (20.0, "t1"), (30.0, "t1")]

    def test_stop_halts_firing(self, engine):
        expiries = []
        setter = watchdog(engine, expiries, interval=10.0)
        setter.observe(tagged("op begins", "begin"))
        engine.run(until=15)
        setter.stop_all()
        engine.run(until=100)
        assert expiries == [(10.0, "t1")]

    def test_kick_resets_deadline(self, engine):
        expiries = []
        setter = watchdog(engine, expiries, interval=10.0)
        setter.observe(tagged("op begins", "begin"))
        observe_at(engine, setter, 8.0, tagged("progress", "step"))
        engine.run(until=17.0)
        # The kick at 8 pushed the expiry from 10 to 18.
        assert expiries == []
        engine.run(until=19.0)
        assert expiries == [(18.0, "t1")]

    def test_watchdog_cause_is_timeout(self, engine):
        """An expiry is a call of ``on_timeout`` with the trace id."""
        expiries = []
        setter = watchdog(engine, expiries, interval=5.0)
        setter.observe(tagged("op begins", "begin", trace="upgrade-7"))
        engine.run(until=6)
        assert expiries == [(5.0, "upgrade-7")]

    def test_unkicked_timer_ignores_slack(self, engine):
        # Regression: slack used to leak into every period, so a timer
        # that was never kicked fired at interval + slack instead of the
        # documented "every ``interval``".
        expiries = []
        setter = watchdog(engine, expiries, interval=5.0, slack=2.0)
        setter.observe(tagged("op begins", "begin"))
        engine.run(until=16)
        assert [time for time, _trace in expiries] == [5.0, 10.0, 15.0]

    def test_slack_widens_post_kick_deadline_only(self, engine):
        expiries = []
        setter = watchdog(engine, expiries, interval=5.0, slack=2.0)
        setter.observe(tagged("op begins", "begin"))
        observe_at(engine, setter, 3.0, tagged("progress", "step"))
        # The kick at 3 pushes the deadline to 3 + 5 + 2 = 10.
        engine.run(until=9.5)
        assert expiries == []
        engine.run(until=10.5)
        assert expiries == [(10.0, "t1")]
        # After the widened deadline expires, periods revert to interval.
        engine.run(until=15.5)
        assert expiries[-1] == (15.0, "t1")

    def test_invalid_interval_rejected(self, engine):
        with pytest.raises(ValueError):
            watchdog(engine, [], interval=0)

    def test_start_idempotent(self, engine):
        expiries = []
        setter = watchdog(engine, expiries, interval=5.0)
        setter.observe(tagged("op begins", "begin"))
        observe_at(engine, setter, 3.0, tagged("op begins again", "begin"))
        engine.run(until=6)
        # A second start line neither re-arms nor doubles the watchdog.
        assert expiries == [(5.0, "t1")]


class TestTimerSetter:
    def test_start_line_arms_timer(self, engine):
        expiries = []
        setter = watchdog(engine, expiries)
        setter.observe(tagged("op begins", "begin"))
        engine.run(until=25)
        assert expiries == [(20.0, "t1")]

    def test_end_line_stops_timer(self, engine):
        expiries = []
        setter = watchdog(engine, expiries)
        setter.observe(tagged("op begins", "begin"))
        setter.observe(tagged("op done", "finish"))
        engine.run(until=100)
        assert expiries == [] and setter.active == {}

    def test_align_activity_kicks(self, engine):
        expiries = []
        setter = watchdog(engine, expiries)
        setter.observe(tagged("op begins", "begin"))
        observe_at(engine, setter, 15.0, tagged("progress", "step"))
        engine.run(until=22)
        # Without the kick the watchdog would have expired at 20.
        assert expiries == []

    def test_per_trace_timers_independent(self, engine):
        expiries = []
        setter = watchdog(engine, expiries)
        setter.observe(tagged("begin", "begin", trace="t1"))
        setter.observe(tagged("begin", "begin", trace="t2"))
        assert set(setter.active) == {"t1", "t2"}
        setter.observe(tagged("done", "finish", trace="t1"))
        assert set(setter.active) == {"t2"}
        engine.run(until=25)
        assert expiries == [(20.0, "t2")]

    def test_lines_without_step_ignored(self, engine):
        setter = watchdog(engine, [])
        setter.observe(LogRecord(time=0, source="s", message="???"))
        assert setter.active == {}
