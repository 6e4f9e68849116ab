"""``SimClock.render`` as it was through ``d3aa573``, kept as the oracle,
and the clock-reading form the tests render through.

One ``datetime`` add and one ``strftime`` per call: exact and obvious,
and 318 times per campaign run too slow for the product.
"""

import datetime as _dt

from repro.sim.clock import render


def reference_render(epoch: _dt.datetime, t: float) -> str:
    """``YYYY-MM-DD HH:MM:SS,mmm`` for virtual time ``t`` past ``epoch``."""
    moment = epoch + _dt.timedelta(seconds=t)
    return moment.strftime("%Y-%m-%d %H:%M:%S,") + f"{int(moment.microsecond / 1000):03d}"


def clock_render(clock, t: float | None = None) -> str:
    """:func:`repro.sim.clock.render` of ``t``, by default of the clock's
    current time (what ``SimClock.render`` did; no live caller reads a
    clock's stamp)."""
    return render(clock.now() if t is None else t)
