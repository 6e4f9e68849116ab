"""Counters, gauges and histograms for the POD pipeline.

A :class:`MetricsRegistry` is the numeric half of the observability
layer: where spans record *when* pipeline work happened, the registry
records *how much* — records ingested, conformance tokens replayed,
assertion outcomes by trigger cause, diagnostic-test verdicts and
latencies, and the hardened API client's retry / circuit-breaker /
blackhole events.

Everything is deterministic: values come from the virtual clock and the
pipeline's own counts, snapshots sort their keys, and histograms store
fixed-bucket counts (plus exact count/sum/min/max) so snapshots merge
associatively across runs.
"""

from __future__ import annotations

import typing as _t

#: Histogram bucket upper bounds (seconds, virtual).  Chosen to resolve
#: both the ~10 ms conformance checks and multi-minute convergence
#: assertions; past the last bound is the +Inf overflow.
BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKETS) + 1)  # +1 for +Inf
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        for index, bound in enumerate(BUCKETS):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> dict:
        labels = [str(b) for b in BUCKETS] + ["+Inf"]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(zip(labels, self.counts)),
        }


class MetricsRegistry:
    """Named counters / gauges / histograms with deterministic snapshots."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments -------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` (created at zero on first use)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (high-water mark)."""
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready, key-sorted view of every instrument."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].snapshot() for k in sorted(self._histograms)
            },
        }

    @staticmethod
    def merge(snapshots: _t.Iterable[dict]) -> dict:
        """Aggregate per-run snapshots: counters and histogram buckets sum,
        gauges keep their maximum (high-water across runs)."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for snap in snapshots:
            if not snap:
                continue
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                if name not in gauges or value > gauges[name]:
                    gauges[name] = value
            for name, hist in snap.get("histograms", {}).items():
                merged = histograms.get(name)
                if merged is None:
                    histograms[name] = {
                        "count": hist["count"],
                        "sum": hist["sum"],
                        "min": hist["min"],
                        "max": hist["max"],
                        "buckets": dict(hist["buckets"]),
                    }
                    continue
                merged["count"] += hist["count"]
                merged["sum"] += hist["sum"]
                if hist["min"] is not None:
                    merged["min"] = (
                        hist["min"] if merged["min"] is None else min(merged["min"], hist["min"])
                    )
                if hist["max"] is not None:
                    merged["max"] = (
                        hist["max"] if merged["max"] is None else max(merged["max"], hist["max"])
                    )
                for label, count in hist["buckets"].items():
                    merged["buckets"][label] = merged["buckets"].get(label, 0) + count
        return {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "histograms": {k: histograms[k] for k in sorted(histograms)},
        }
