"""Edda-style cloud monitor.

Netflix's Edda polls AWS and keeps timestamped views of every resource,
letting operators ask "what did this look like N minutes ago?".  The
paper's diagnosis consults such a monitor alongside direct API calls —
here to notice a launch configuration that changed and changed back (the
transient-fault class): a change shorter than the crawl interval is
invisible, which is exactly how the paper's third wrong-diagnosis class
happens.

The monitor is a periodic crawler process over the simulated region.  A
crawl records, for each resource written since the previous crawl (the
first crawl: every resource), the view the region holds *at that
moment*.  It never asks the state for "the view as of the crawl time"
afterwards: the 5 s reconcile loop shares instants with the 30 s crawl,
and a write that lands later in the same instant belongs to the next
crawl, not this one.  Unwritten resources cost nothing, so a crawl's work
and the monitor's memory follow writes, not ticks × region size.
"""

from __future__ import annotations

import typing as _t
from bisect import bisect_right

from repro.cloud.freeze import FrozenView
from repro.cloud.state import KINDS


class CloudMonitor:
    """Periodic sampling crawler (Edda substitute)."""

    def __init__(self, engine, state, interval: float = 30.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.state = state
        self.interval = interval
        #: Crawl times, in order.
        self.ticks: list[float] = []
        #: (kind, id) -> parallel (crawl time, view) arrays, one entry per
        #: crawl that found the resource written; ``None`` = deleted.
        self._samples: dict[tuple[str, str], tuple[list[float], list[FrozenView | None]]] = {}
        self._log_position = 0
        self._running = False

    def start(self) -> None:
        """Begin crawling; crawls immediately, then every ``interval``."""
        if self._running:
            return
        self._running = True
        self.engine.process(self._crawl_loop(), name="cloud-monitor")

    def stop(self) -> None:
        self._running = False

    def _crawl_loop(self) -> _t.Generator:
        while self._running:
            self.take_snapshot()
            yield self.engine.timeout(self.interval)

    def take_snapshot(self) -> None:
        """Crawl the region now (also callable directly in tests).

        ``cloud.monitor.refreshed`` / ``cloud.monitor.reused`` count how
        many resources the crawl sampled vs left untouched.
        """
        state = self.state
        now = self.engine.now
        if self.ticks:
            written = dict.fromkeys(state.writes_since(self._log_position))  # distinct, in order
        else:
            written = [(kind, identifier) for kind in KINDS for identifier in state._registry(kind)]
        self._log_position = state.write_seq()
        self.ticks.append(now)
        for key in written:
            times, views = self._samples.setdefault(key, ([], []))
            times.append(now)
            views.append(state.latest_view(*key))
        region_size = sum(len(state._registry(kind)) for kind in KINDS)
        state._count_many("cloud.monitor.refreshed", len(written))
        state._count_many("cloud.monitor.reused", region_size - len(written))

    # -- queries -----------------------------------------------------------

    def at(self, when: float, kind: str, identifier: str) -> FrozenView | None:
        """View of a resource as of the last crawl at or before ``when``."""
        times, views = self._samples.get((kind, identifier), ((), ()))
        index = bisect_right(times, when) - 1
        return views[index] if index >= 0 else None

    def changes(self, kind: str, identifier: str) -> list[tuple[float, FrozenView | None]]:
        """Distinct successive views of a resource, from the first crawl on.

        Diagnosis uses this to detect flapping configuration — a value that
        changed and later reverted (the paper's transient-fault class).
        """
        times, views = self._samples.get((kind, identifier), ((), ()))
        result: list[tuple[float, FrozenView | None]] = []
        if self.ticks and (not times or times[0] > self.ticks[0]):
            result.append((self.ticks[0], None))  # absent at the first crawl
        for when, view in zip(times, views):
            if not result or view != result[-1][1]:
                result.append((when, view))
        return result
