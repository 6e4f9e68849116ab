"""Virtual clock for the simulation.

All timestamps in the reproduction are virtual seconds since the start of
the simulation.  The clock also renders timestamps in the log format the
paper's Asgard/Logstash excerpts use (``2013-11-19 11:48:01,100``), anchored
at an arbitrary epoch, so that synthetic logs look like the real ones.
"""

from __future__ import annotations

import datetime as _dt

#: Anchor used when rendering virtual times as wall-clock-looking strings.
#: Chosen to match the era of the paper's log excerpts.
DEFAULT_EPOCH = _dt.datetime(2013, 11, 19, 11, 0, 0)


class SimClock:
    """A monotonically advancing virtual clock.

    The engine owns one and advances it as events fire.  Components read it
    through :meth:`now` and format log timestamps with :meth:`render`.
    """

    def __init__(self, epoch: _dt.datetime | None = None) -> None:
        self._now = 0.0
        self._epoch = epoch or DEFAULT_EPOCH
        # render() counts from the epoch day's midnight and remembers the
        # one date prefix it rendered last (a run rarely crosses midnight).
        midnight = self._epoch.replace(hour=0, minute=0, second=0, microsecond=0)
        self._offset = self._epoch - midnight
        self._day, self._date = None, ""

    @property
    def epoch(self) -> _dt.datetime:
        """The wall-clock datetime corresponding to virtual time zero."""
        return self._epoch

    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Advance the clock to ``t``.

        Raises :class:`ValueError` on attempts to move backwards: virtual
        time, like real time, is monotone.
        """
        if t < self._now:
            raise ValueError(f"clock cannot go backwards: {t} < {self._now}")
        self._now = t

    def render(self, t: float | None = None) -> str:
        """Render a virtual time as ``YYYY-MM-DD HH:MM:SS,mmm``.

        This is the timestamp format used by Asgard's log4j output, which
        the paper's excerpts show; reproducing it keeps the synthetic logs
        realistic for the regex layer.
        """
        if t is None:
            t = self._now
        # timedelta rounds to microseconds and splits off whole days; the
        # rest is integer arithmetic, the date formatted once per day.
        since = self._offset + _dt.timedelta(seconds=t)
        if since.days != self._day:
            self._day = since.days
            self._date = (self._epoch + _dt.timedelta(days=self._day)).strftime("%Y-%m-%d ")
        second = since.seconds
        return "%s%02d:%02d:%02d,%03d" % (
            self._date, second // 3600, second // 60 % 60, second % 60, since.microseconds // 1000
        )

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f})"
