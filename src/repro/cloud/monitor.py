"""Edda-style cloud monitor.

Netflix's Edda polls AWS and keeps timestamped views of every resource,
letting operators ask "what did this look like N minutes ago?".  The
paper's diagnosis consults such a monitor alongside direct API calls —
here to notice a launch configuration that changed and changed back (the
transient-fault class): a change shorter than the crawl interval is
invisible, which is exactly how the paper's third wrong-diagnosis class
happens.

The monitor is a periodic crawler process over the simulated region.  A
crawl records its time and where the region's write sequence stood
(``state.write_seq()``), nothing else: the region's own history already
holds every version of every resource, so what a crawl saw is that
history as of the crawl's *position*.  It is read by position, not by
time: the 5 s reconcile loop shares instants with the 30 s crawl, and a
write that lands later in the same instant belongs to the next crawl,
not this one.
"""

from __future__ import annotations

import typing as _t

from repro.cloud.freeze import FrozenView


#: Seconds between crawls; a configuration flap shorter than this can
#: fall between two crawls and go unseen.
CRAWL_INTERVAL = 30.0


class CloudMonitor:
    """Periodic crawler (Edda substitute) over the region's history."""

    def __init__(self, engine, state) -> None:
        self.engine = engine
        self.state = state
        #: Crawl times, in order.
        self.ticks: list[float] = []
        #: The region's write position at each crawl, parallel to ``ticks``.
        self._positions: list[int] = []
        self._running = False

    def start(self) -> None:
        """Begin crawling; crawls immediately, then every ``CRAWL_INTERVAL``."""
        if self._running:
            return
        self._running = True
        self.engine.process(self._crawl_loop(), name="cloud-monitor")

    def stop(self) -> None:
        self._running = False

    def _crawl_loop(self) -> _t.Generator:
        while self._running:
            self.take_snapshot()
            yield self.engine.timeout(CRAWL_INTERVAL)

    def take_snapshot(self) -> None:
        """Crawl the region now (also callable directly in tests)."""
        self.ticks.append(self.engine.now)
        self._positions.append(self.state.write_seq())

    # -- queries -----------------------------------------------------------

    def changes(self, kind: str, identifier: str) -> list[tuple[float, FrozenView | None]]:
        """Distinct successive views of a resource, from the first crawl on
        (``None`` = absent when that crawl ran).

        Diagnosis uses this to detect flapping configuration — a value that
        changed and later reverted (the paper's transient-fault class).
        """
        view_before = self.state.view_before
        result: list[tuple[float, FrozenView | None]] = []
        for when, crawled in zip(self.ticks, self._positions):
            view = view_before(kind, identifier, crawled)
            if not result or view != result[-1][1]:
                result.append((when, view))
        return result
