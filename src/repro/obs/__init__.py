"""``repro.obs`` — tracing + metrics for the whole POD pipeline.

One :class:`Observability` object travels through a testbed: its
:class:`~repro.obs.trace.Tracer` records nested spans on the virtual
clock, its :class:`~repro.obs.metrics.MetricsRegistry` counts pipeline
work, and both export into :class:`~repro.evaluation.campaign.RunOutcome`
(``outcome.trace`` / ``outcome.metrics``).

Observability is off when there is no object: every component takes
``obs=None`` and guards its instrument calls with one ``is None`` test.
Either way no engine events or RNG draws are introduced, which preserves
the serial ≡ parallel bit-for-bit guarantee.
"""

from __future__ import annotations

import typing as _t

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
]


class Observability:
    """A tracer + metrics registry sharing one clock."""

    def __init__(self, clock: _t.Callable[[], float] | None = None) -> None:
        self.tracer = Tracer(clock=clock)
        self.metrics = MetricsRegistry()

    @classmethod
    def for_engine(cls, engine) -> "Observability":
        """Bind to a simulation engine's virtual clock."""
        return cls(clock=lambda: engine.now)

    def export_trace(self) -> list[dict]:
        return self.tracer.export()

    def export_metrics(self) -> dict:
        return self.metrics.snapshot()
