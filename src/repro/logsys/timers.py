"""Timers: non-log triggers for assertion evaluation (§III.B.3).

Three behaviours from the paper:

- **one-off timer** — "check an assertion at a specified time point", used
  when a step emits no completion log line;
- **periodic timer** — started by the log line that begins the operation
  process, stopped by the line that ends it, firing an assertion check
  every period;
- **log-aligned timer** — for periodically recurring log events: each
  occurrence *kicks* the timer; the timeout is the expected gap plus slack
  (calibrated at the 95th percentile of historical timing).  If the next
  event arrives in time the assertion is evaluated and the timer reset; if
  the timeout expires first, the evaluation runs with a ``timeout`` cause —
  the source of the paper's first false-positive class.
"""

from __future__ import annotations

import typing as _t

from repro.logsys.record import LogRecord

TimerCallback = _t.Callable[["TimerFiring"], None]


class TimerFiring:
    """What a timer passes to its callback."""

    def __init__(self, timer_name: str, time: float, cause: str, record: LogRecord | None = None) -> None:
        self.timer_name = timer_name
        self.time = time
        self.cause = cause  # "periodic" | "timeout" | "aligned" | "one-off"
        self.record = record

    def __repr__(self) -> str:
        return f"TimerFiring({self.timer_name}, t={self.time:.2f}, cause={self.cause})"


class OneOffTimer:
    """Fires once after ``delay`` unless cancelled."""

    def __init__(self, engine, delay: float, callback: TimerCallback, name: str = "one-off") -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.engine = engine
        self.name = name
        self.callback = callback
        self.fired = False
        self.cancelled = False
        engine.process(self._wait(delay), name=f"timer-{name}")

    def cancel(self) -> None:
        self.cancelled = True

    def _wait(self, delay: float) -> _t.Generator:
        yield self.engine.timeout(delay)
        if self.cancelled:
            return
        self.fired = True
        self.callback(TimerFiring(self.name, self.engine.now, "one-off"))


class PeriodicTimer:
    """Repeating timer with optional log alignment.

    Without kicks it fires every ``interval`` with cause ``periodic``.
    :meth:`kick` pushes the next deadline out by ``interval + slack`` and
    fires the callback immediately with cause ``aligned`` (the expected
    event arrived); an expiry with no intervening kick fires with cause
    ``timeout`` when ``watchdog`` is set, else ``periodic``.
    """

    def __init__(
        self,
        engine,
        interval: float,
        callback: TimerCallback,
        name: str = "periodic",
        slack: float = 0.0,
        watchdog: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.interval = interval
        self.slack = slack
        self.callback = callback
        self.name = name
        self.watchdog = watchdog
        self.running = False
        self._generation = 0

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._generation += 1
        self.engine.process(self._arm(self._generation), name=f"timer-{self.name}")

    def stop(self) -> None:
        self.running = False
        self._generation += 1

    def kick(self, record: LogRecord | None = None) -> None:
        """The awaited log event occurred: fire aligned, reset deadline."""
        if not self.running:
            return
        self._fire("aligned", record)
        self._generation += 1
        self.engine.process(
            self._arm(self._generation, first_slack=self.slack),
            name=f"timer-{self.name}",
        )

    def _arm(self, generation: int, first_slack: float = 0.0) -> _t.Generator:
        # Slack widens only the deadline immediately after a kick (the
        # calibrated tolerance for the *next* expected log event); an
        # unkicked timer fires every ``interval`` exactly, as documented.
        delay = self.interval + first_slack
        while self.running and generation == self._generation:
            yield self.engine.timeout(delay)
            delay = self.interval
            if not self.running or generation != self._generation:
                return
            self._fire("timeout" if self.watchdog else "periodic", None)

    def _fire(self, cause: str, record: LogRecord | None) -> None:
        self.callback(TimerFiring(self.name, self.engine.now, cause, record))


class TimerSetter:
    """Pipeline stage creating/stopping timers from process context tags.

    Configured with rules of the form *start activity → end activity →
    timer spec*; on seeing the start line it starts the timer, on the end
    line it stops it, and on align activities it kicks it.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self._rules: list[dict] = []
        #: (rule index, trace id) -> live PeriodicTimer
        self.active: dict[tuple[int, str], PeriodicTimer] = {}

    def add_rule(
        self,
        start_activity: str,
        end_activity: str,
        interval: float,
        callback: TimerCallback,
        name: str = "op-timer",
        slack: float = 0.0,
        watchdog: bool = False,
        align_activities: _t.Iterable[str] = (),
    ) -> None:
        self._rules.append(
            {
                "start": start_activity,
                "end": end_activity,
                "interval": interval,
                "callback": callback,
                "name": name,
                "slack": slack,
                "watchdog": watchdog,
                "align": set(align_activities),
            }
        )

    def observe(self, record: LogRecord) -> None:
        """Feed one annotated record through the timer rules."""
        activity = record.tag_value("step")
        trace = record.tag_value("trace") or "-"
        if activity is None:
            return
        for index, rule in enumerate(self._rules):
            key = (index, trace)
            if activity == rule["start"] and key not in self.active:
                timer = PeriodicTimer(
                    self.engine,
                    rule["interval"],
                    rule["callback"],
                    name=f"{rule['name']}:{trace}",
                    slack=rule["slack"],
                    watchdog=rule["watchdog"],
                )
                timer.start()
                self.active[key] = timer
            elif activity == rule["end"] and key in self.active:
                self.active.pop(key).stop()
            elif activity in rule["align"] and key in self.active:
                self.active[key].kick(record)

    def stop_all(self) -> None:
        for timer in self.active.values():
            timer.stop()
        self.active.clear()
