"""The watchdog: the one timer trigger for assertion evaluation (§III.B.3).

The paper names one-off, periodic and log-aligned timers.  POD arms one
timer per watched trace, the log-aligned **watchdog**: the operation's
start line starts it and its end line stops it.  Each step-completion
(*align*) line re-arms it at the expected gap plus slack, calibrated at
the 95th percentile of historical timing.  If the next line is late, the
deadline passes and the watchdog fires ``timeout`` — the evaluation then
runs without a log line's context, the source of the paper's first
false-positive class — and again every ``interval`` until a line or the
end arrives.  One-off and plain periodic timers are not built: no
campaign, subcommand or example arms one (DESIGN.md §2).
"""

from __future__ import annotations

import typing as _t

from repro.logsys.record import LogRecord
from repro.sim.engine import Engine, Timeout


class TimerSetter:
    """Pipeline stage running one watchdog per trace from its step tags."""

    def __init__(
        self,
        engine: Engine,
        start_activity: str,
        end_activity: str,
        align_activities: _t.Iterable[str],
        interval: float,
        slack: float,
        on_timeout: _t.Callable[[str], None],
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.start_activity = start_activity
        self.end_activity = end_activity
        self.align_activities = frozenset(align_activities)
        self.interval = interval
        self.slack = slack
        #: Called with the trace id at each deadline its watchdog misses.
        self.on_timeout = on_timeout
        #: trace id -> the pending deadline of its running watchdog
        self.active: dict[str, Timeout] = {}

    def observe(self, record: LogRecord) -> None:
        """Feed one annotated record: start, stop or re-arm its trace's watchdog."""
        activity = record.tag_value("step")
        if activity is None:
            return
        trace = record.tag_value("trace") or "-"
        if activity == self.start_activity and trace not in self.active:
            self._arm(trace, self.interval)
        elif activity == self.end_activity and trace in self.active:
            del self.active[trace]
        elif activity in self.align_activities and trace in self.active:
            self._arm(trace, self.interval + self.slack)

    def stop_all(self) -> None:
        self.active.clear()

    def _arm(self, trace: str, delay: float) -> None:
        deadline = self.active[trace] = self.engine.timeout(delay)
        deadline.callbacks.append(lambda fired: self._expire(trace, fired))

    def _expire(self, trace: str, deadline: Timeout) -> None:
        # A deadline that a later line replaced, or that the end line
        # dropped, passes silently.
        if self.active.get(trace) is deadline:
            self.on_timeout(trace)
            self._arm(trace, self.interval)
