"""``repro.obs`` — tracing + metrics for the whole POD pipeline.

One :class:`Observability` object travels through a traced testbed: its
:class:`~repro.obs.trace.Tracer` records nested spans on the virtual
clock, and ``RunOutcome.trace`` holds the tracer's own spans (JSON is
made only by :mod:`repro.obs.export`).

Metrics are not counted here.  :func:`~repro.obs.snapshot.run_metrics`
reads a run's snapshot at export from what the run keeps — conformance
and assertion results, diagnosis reports, and the client's and the
recovery plane's always-on counts — so the snapshot is the same whether
or not the run was traced.

Tracing is off when there is no object: a component takes ``obs=None``
and guards its span calls with one ``is None`` test.  Either way no
engine events or RNG draws are introduced, which preserves the serial ≡
parallel bit-for-bit guarantee.
"""

from __future__ import annotations

from repro.obs.snapshot import Histogram, run_metrics
from repro.obs.trace import ClockFn, Span, Tracer

__all__ = [
    "Histogram",
    "Observability",
    "Span",
    "Tracer",
    "run_metrics",
]


class Observability:
    """A run's tracer on one clock, and the traced run's two exports."""

    def __init__(self, clock: ClockFn | None = None) -> None:
        self.tracer = Tracer(clock=clock)

    @classmethod
    def for_engine(cls, engine) -> "Observability":
        """Bind to a simulation engine's virtual clock."""
        return cls(clock=engine.clock.now)

    def export_trace(self) -> list[Span]:
        return self.tracer.export()

    def export_metrics(self, testbed) -> dict:
        """The run's metrics, read from ``testbed`` (:func:`run_metrics`).
        A traced run exports through here, beside :meth:`export_trace`, so
        the ledger times both as the obs layer's export."""
        return run_metrics(testbed)
