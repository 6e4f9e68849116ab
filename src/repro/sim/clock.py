"""Virtual clock for the simulation.

All timestamps in the reproduction are virtual seconds since the start of
the simulation.  The clock also renders timestamps in the log format the
paper's Asgard/Logstash excerpts use (``2013-11-19 11:48:01,100``), anchored
at one fixed epoch, so that synthetic logs look like the real ones.
"""

from __future__ import annotations

import datetime as _dt

#: The wall-clock datetime corresponding to virtual time zero, chosen to
#: match the era of the paper's log excerpts.
EPOCH = _dt.datetime(2013, 11, 19, 11, 0, 0)
#: render() counts from the epoch day's midnight.
_MIDNIGHT = EPOCH.replace(hour=0, minute=0, second=0, microsecond=0)
_OFFSET = EPOCH - _MIDNIGHT


def render(t: float) -> str:
    """Render virtual time ``t`` as ``YYYY-MM-DD HH:MM:SS,mmm``.

    This is the timestamp format used by Asgard's log4j output, which the
    paper's excerpts show; reproducing it keeps the synthetic logs
    realistic for the regex layer.  A log record's stamp is this function
    of its ``time``, rendered when the stamp is read.
    """
    # timedelta rounds to microseconds and splits off whole days; the
    # rest is integer arithmetic.
    since = _OFFSET + _dt.timedelta(seconds=t)
    day = _MIDNIGHT + _dt.timedelta(days=since.days)
    second = since.seconds
    return "%d-%02d-%02d %02d:%02d:%02d,%03d" % (
        day.year, day.month, day.day,
        second // 3600, second // 60 % 60, second % 60, since.microseconds // 1000,
    )


class SimClock:
    """A monotonically advancing virtual clock.

    The engine owns one and advances it as events fire.  Components read it
    through :meth:`now`; a log record renders its stamp from the time it
    was written at (:func:`render`).
    """

    def __init__(self) -> None:
        self._now = 0.0

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

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f})"
