"""``repro.obs`` — tracing + metrics for the whole POD pipeline.

One :class:`Observability` object travels through a testbed: its
:class:`~repro.obs.trace.Tracer` records nested spans on the virtual
clock, its :class:`~repro.obs.metrics.MetricsRegistry` counts pipeline
work, and both export into :class:`~repro.evaluation.campaign.RunOutcome`
(``outcome.trace`` is the tracer's own spans; JSON is made only by
:mod:`repro.obs.export`).

Observability is off when there is no object: every component takes
``obs=None`` and guards its instrument calls with one ``is None`` test.
Either way no engine events or RNG draws are introduced, which preserves
the serial ≡ parallel bit-for-bit guarantee.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import ClockFn, Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
]


class Observability:
    """A tracer + metrics registry sharing one clock; ``data_plane`` (the
    cloud's always-on counters) is read at export, never mirrored."""

    def __init__(self, clock: ClockFn | None = None, data_plane: dict | None = None) -> None:
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()
        self._data_plane = {} if data_plane is None else data_plane

    @classmethod
    def for_engine(cls, engine, data_plane: dict) -> "Observability":
        """Bind to a simulation engine's virtual clock and a cloud's counters."""
        return cls(clock=engine.clock.now, data_plane=data_plane)

    def export_trace(self) -> list[Span]:
        return self.tracer.export()

    def export_metrics(self) -> dict:
        snapshot = self.metrics.snapshot()
        counters = {**snapshot["counters"], **self._data_plane}
        snapshot["counters"] = {k: counters[k] for k in sorted(counters)}
        return snapshot
