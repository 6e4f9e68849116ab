"""``repro.obs`` — a run's trace and metrics, both read at export.

Nothing in the pipeline records for this package.  A run keeps its
records anyway — conformance and assertion results, diagnosis reports,
plan executions, and the client's and the recovery plane's always-on
counts — and a traced run's two exports read them after the run:

- :func:`~repro.obs.trace.run_trace` builds the nested spans that
  ``RunOutcome.trace`` holds (JSON is made only by
  :mod:`repro.obs.export`);
- :func:`~repro.obs.snapshot.run_metrics` reads the metrics snapshot.

So turning tracing on changes no code that runs before the export:
``RunSpec(trace=True)`` only decides whether the export runs, and a traced
run is the untraced run plus two reads.  Neither adds engine events or RNG
draws, which preserves the serial ≡ parallel bit-for-bit guarantee.
"""

from __future__ import annotations

from repro.obs.snapshot import Histogram, run_metrics
from repro.obs.trace import Span, run_trace

__all__ = [
    "Histogram",
    "Observability",
    "Span",
    "run_metrics",
    "run_trace",
]


class Observability:
    """A traced run's two exports, each read from its testbed at the end of
    the run (before ``Testbed.close``).  It holds nothing: it is where the
    export is timed as the obs layer's work."""

    def export_trace(self, testbed) -> list[Span]:
        """The run's spans (:func:`run_trace`)."""
        return run_trace(testbed)

    def export_metrics(self, testbed) -> dict:
        """The run's metrics (:func:`run_metrics`)."""
        return run_metrics(testbed)
