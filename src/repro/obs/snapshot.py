"""A run's metrics: read at export from what the run keeps.

Spans record *when* pipeline work happened; the metrics snapshot says
*how much* — records ingested, conformance checks by status, assertion
outcomes by trigger cause, diagnostic-test verdicts and latencies, the
hardened API client's retry / circuit-breaker / blackhole events and the
recovery plane's work.  Nothing counts for it: :func:`run_metrics` reads
each number off a record the pipeline keeps anyway or an int its owner
keeps always on, so tracing adds spans and nothing else (DESIGN.md §6
"Metrics" maps every name to its source).

Everything is deterministic: values come from the virtual clock and the
run's own records, snapshots sort their keys, and histograms store
fixed-bucket counts (plus exact count/sum/min/max) so snapshots merge
associatively across runs.
"""

from __future__ import annotations

import typing as _t

from repro.process.conformance import FIT, UNFIT

#: Histogram bucket upper bounds (seconds, virtual).  Chosen to resolve
#: both the ~10 ms conformance checks and multi-minute convergence
#: assertions; past the last bound is the +Inf overflow.
BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

#: Snapshot labels of the buckets, built once and shared by every snapshot.
_LABELS: tuple[str, ...] = tuple(str(b) for b in BUCKETS) + ("+Inf",)


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
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": dict(zip(_LABELS, self.counts)),
        }


def run_metrics(testbed) -> dict:
    """The metrics snapshot of a run on ``testbed``, traced or not.

    The one place a metric name is spelled.  Read before the testbed is
    closed (closing drops its log processors).  A counter nothing counted
    is absent.  ``diagnosis.tests.<verdict>`` counts the tests a walk ran,
    not the ones it reused from earlier in the same walk.
    """
    pod = testbed.pod
    counters: dict[str, int] = {}
    histograms: dict[str, Histogram] = {}

    def count(name: str, value: int = 1) -> None:
        if value:
            counters[name] = counters.get(name, 0) + value

    def observe(name: str, value: float) -> None:
        histogram = histograms.get(name)
        if histogram is None:
            histogram = histograms[name] = Histogram()
        histogram.observe(value)

    for processor in pod.processors:
        count("pipeline.records_filtered", processor.filtered_count)
        count("pipeline.records_ingested", processor.ingested_count)
        count("pipeline.records_shipped", processor.shipped_count)

    for result in pod.conformance.results:
        count(f"conformance.checks.{result.status}")
        if result.status in (FIT, UNFIT):
            count("conformance.tokens_replayed")
        count("conformance.compiled.checks")

    for result in pod.assertions.results:
        count(f"assertions.outcomes.{result.cause}.{'failed' if result.failed else 'passed'}")
        count("assertions.degraded", result.degraded)
        observe("assertion.duration", result.duration)
    in_flight_max = pod.assertions.in_flight_max
    gauges = {"assertions.in_flight_max": in_flight_max} if in_flight_max else {}

    for report in pod.diagnosis.completed:
        count("diagnosis.requests")
        count(f"diagnosis.requests.{report.trigger}")
        observe("diagnosis.walk.duration", report.duration)
        for test in report.tests:
            if not test.cached:
                count(f"diagnosis.tests.{test.verdict}")
                observe("diagnosis.test.duration", test.duration)

    recoveries = testbed.recoveries
    for client in [pod.env.client, *(recovery.client for recovery in recoveries)]:
        count("client.calls", client.calls_made)
        count("client.retries", client.retries_made - client.consistency_retries)
        count("client.consistency_retries", client.consistency_retries)
        count("client.retryable_errors", client.retryable_errors)
        count("client.timeouts", client.timeouts)
        count("client.retry_exhaustions", client.retry_exhaustions)
        count("client.budget_denials", client.budget_denials)
        count("client.breaker_trips", client.breaker_trips)
        count("client.breaker_fast_fails", client.breaker_fast_fails)
        count("client.blackholes", client.blackholes)
        count("client.predicate_memo_hits", client.predicate_memo_hits)
    for recovery in recoveries:
        for name, value in recovery.counters.items():
            count(f"recovery.{name}", value)

    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": gauges,
        "histograms": {k: histograms[k].snapshot() for k in sorted(histograms)},
    }


def merge_snapshots(snapshots: _t.Iterable[dict]) -> dict:
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
