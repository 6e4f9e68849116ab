"""``repro.obs`` — tracing + metrics for the whole POD pipeline.

One :class:`Observability` object travels through a testbed: its
:class:`~repro.obs.trace.Tracer` records nested spans on the virtual
clock, its :class:`~repro.obs.metrics.MetricsRegistry` counts pipeline
work, and both export into :class:`~repro.evaluation.campaign.RunOutcome`
(``outcome.trace`` / ``outcome.metrics``) when enabled.

Disabled observability (:data:`NULL_OBS`, the default everywhere) is a
shared, inert object: every instrument call is a no-op behind a single
``enabled`` check, preserving the seed's wall-clock and — because no
engine events or RNG draws are ever introduced either way — the
serial ≡ parallel bit-for-bit guarantee.
"""

from __future__ import annotations

import typing as _t

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SPAN",
    "NullSpan",
    "Observability",
    "Span",
    "Tracer",
]


class Observability:
    """A tracer + metrics registry sharing one enabled flag and clock."""

    def __init__(self, clock: _t.Callable[[], float] | None = None, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = Tracer(clock=clock, enabled=enabled)
        self.metrics = MetricsRegistry(enabled=enabled)

    @classmethod
    def for_engine(cls, engine, enabled: bool = True) -> "Observability":
        """Bind to a simulation engine's virtual clock."""
        return cls(clock=lambda: engine.now, enabled=enabled)

    def export_trace(self) -> list[dict]:
        return self.tracer.export()

    def export_metrics(self) -> dict:
        return self.metrics.snapshot()


#: Shared disabled instance: safe to hand to any number of components —
#: nothing it receives is ever recorded.
NULL_OBS = Observability(enabled=False)
