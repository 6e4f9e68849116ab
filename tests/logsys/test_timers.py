"""Tests for timer-based triggering (§III.B.3)."""

import pytest

from repro.logsys.record import LogRecord
from repro.logsys.timers import OneOffTimer, PeriodicTimer, TimerSetter


def tagged(message, step, trace="t1", time=0.0):
    record = LogRecord(time=time, source="s", message=message)
    record.add_tag(f"step:{step}")
    record.add_tag(f"trace:{trace}")
    return record


class TestOneOffTimer:
    def test_fires_once_at_delay(self, engine):
        firings = []
        OneOffTimer(engine, 5.0, firings.append)
        engine.run()
        assert len(firings) == 1
        assert firings[0].time == 5.0
        assert firings[0].cause == "one-off"

    def test_cancel_prevents_firing(self, engine):
        firings = []
        timer = OneOffTimer(engine, 5.0, firings.append)
        timer.cancel()
        engine.run()
        assert firings == []
        assert not timer.fired

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            OneOffTimer(engine, -1, lambda f: None)


class TestPeriodicTimer:
    def test_fires_every_interval(self, engine):
        firings = []
        timer = PeriodicTimer(engine, 10.0, firings.append, name="p")
        timer.start()
        engine.run(until=35)
        timer.stop()
        assert [f.time for f in firings] == [10.0, 20.0, 30.0]
        assert all(f.cause == "periodic" for f in firings)

    def test_stop_halts_firing(self, engine):
        firings = []
        timer = PeriodicTimer(engine, 10.0, firings.append)
        timer.start()
        engine.run(until=15)
        timer.stop()
        engine.run(until=100)
        assert len(firings) == 1

    def test_kick_resets_deadline_and_fires_aligned(self, engine):
        firings = []
        timer = PeriodicTimer(engine, 10.0, firings.append, watchdog=True)
        timer.start()

        def kicker():
            yield engine.timeout(8.0)
            timer.kick()

        engine.process(kicker())
        engine.run(until=17.0)
        # Kick at 8 fired "aligned" and pushed the expiry to 18.
        assert [(f.time, f.cause) for f in firings] == [(8.0, "aligned")]
        engine.run(until=19.0)
        assert firings[-1].cause == "timeout"
        assert firings[-1].time == 18.0
        timer.stop()

    def test_watchdog_cause_is_timeout(self, engine):
        firings = []
        timer = PeriodicTimer(engine, 5.0, firings.append, watchdog=True)
        timer.start()
        engine.run(until=6)
        timer.stop()
        assert firings[0].cause == "timeout"

    def test_unkicked_timer_ignores_slack(self, engine):
        # Regression: slack used to leak into every period, so a timer
        # that was never kicked fired at interval + slack instead of the
        # documented "every ``interval``".
        firings = []
        timer = PeriodicTimer(engine, 5.0, firings.append, slack=2.0)
        timer.start()
        engine.run(until=16)
        timer.stop()
        assert [f.time for f in firings] == [5.0, 10.0, 15.0]

    def test_slack_widens_post_kick_deadline_only(self, engine):
        firings = []
        timer = PeriodicTimer(engine, 5.0, firings.append, slack=2.0, watchdog=True)
        timer.start()

        def kicker():
            yield engine.timeout(3.0)
            timer.kick()

        engine.process(kicker())
        # Kick at 3 pushes the watchdog deadline to 3 + 5 + 2 = 10.
        engine.run(until=9.5)
        assert [(f.time, f.cause) for f in firings] == [(3.0, "aligned")]
        engine.run(until=10.5)
        assert (firings[-1].time, firings[-1].cause) == (10.0, "timeout")
        # After the widened deadline expires, periods revert to interval.
        engine.run(until=15.5)
        timer.stop()
        assert (firings[-1].time, firings[-1].cause) == (15.0, "timeout")

    def test_invalid_interval_rejected(self, engine):
        with pytest.raises(ValueError):
            PeriodicTimer(engine, 0, lambda f: None)

    def test_start_idempotent(self, engine):
        firings = []
        timer = PeriodicTimer(engine, 5.0, firings.append)
        timer.start()
        timer.start()
        engine.run(until=6)
        timer.stop()
        assert len(firings) == 1


class TestTimerSetter:
    def _setter(self, engine, firings):
        setter = TimerSetter(engine)
        setter.add_rule(
            start_activity="begin",
            end_activity="finish",
            interval=20.0,
            callback=firings.append,
            watchdog=True,
            align_activities=("step",),
        )
        return setter

    def test_start_line_arms_timer(self, engine):
        firings = []
        setter = self._setter(engine, firings)
        setter.observe(tagged("op begins", "begin"))
        engine.run(until=25)
        setter.stop_all()
        assert len(firings) == 1
        assert firings[0].cause == "timeout"

    def test_end_line_stops_timer(self, engine):
        firings = []
        setter = self._setter(engine, firings)
        setter.observe(tagged("op begins", "begin"))
        setter.observe(tagged("op done", "finish"))
        engine.run(until=100)
        assert firings == []

    def test_align_activity_kicks(self, engine):
        firings = []
        setter = self._setter(engine, firings)
        setter.observe(tagged("op begins", "begin"))

        def mid_step():
            yield engine.timeout(15.0)
            setter.observe(tagged("progress", "step"))

        engine.process(mid_step())
        engine.run(until=22)
        # Without the kick the watchdog would have expired at 20.
        timeouts = [f for f in firings if f.cause == "timeout"]
        assert timeouts == []
        setter.stop_all()

    def test_per_trace_timers_independent(self, engine):
        firings = []
        setter = self._setter(engine, firings)
        setter.observe(tagged("begin", "begin", trace="t1"))
        setter.observe(tagged("begin", "begin", trace="t2"))
        assert len(setter.active) == 2
        setter.observe(tagged("done", "finish", trace="t1"))
        assert len(setter.active) == 1
        setter.stop_all()

    def test_lines_without_step_ignored(self, engine):
        setter = self._setter(engine, [])
        setter.observe(LogRecord(time=0, source="s", message="???"))
        assert setter.active == {}
