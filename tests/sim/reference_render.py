"""``SimClock.render`` as it was through ``d3aa573``, kept as the oracle.

One ``datetime`` add and one ``strftime`` per call: exact and obvious,
and 318 times per campaign run too slow for the product.
"""

import datetime as _dt


def reference_render(epoch: _dt.datetime, t: float) -> str:
    """``YYYY-MM-DD HH:MM:SS,mmm`` for virtual time ``t`` past ``epoch``."""
    moment = epoch + _dt.timedelta(seconds=t)
    return moment.strftime("%Y-%m-%d %H:%M:%S,") + f"{int(moment.microsecond / 1000):03d}"
