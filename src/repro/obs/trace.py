"""In-process tracing over the simulation's virtual clock.

The POD pipeline (ingest → conformance → assertion evaluation →
diagnosis) is otherwise a black box: when a campaign's precision dips or
its diagnosis times drift, nothing records *where* inside a run the time
or the verdicts went.  :class:`Tracer` fixes that with nested spans:

- one span per log record accepted by the local log processor (stage
  ``ingest``);
- one span per conformance token replay (stage ``conformance``);
- one span per assertion evaluation, whatever its trigger (stage
  ``assertion``);
- one span per fault-tree walk and one per diagnostic test inside it
  (stage ``diagnosis``).

A span is recorded once, as a slotted :class:`Span`: the tracer's own
records are what :meth:`Tracer.export` returns and what
``RunOutcome.trace`` holds.  JSON is made only at the format boundary
(:func:`repro.obs.export.trace_payload`, :meth:`Span.to_dict`).

Two properties are load-bearing:

- **determinism** — span timestamps are *virtual* (the engine's
  :class:`~repro.sim.clock.SimClock`), ids come from a per-tracer
  counter, and tracing never touches the event queue or any RNG, so a
  traced run is bit-for-bit identical serially and in parallel;
- **zero cost when off** — an untraced run has no tracer at all (see
  :mod:`repro.obs`), so the hot paths pay one ``is None`` test per
  record.
"""

from __future__ import annotations

import dataclasses
import typing as _t

#: Callable returning the current virtual time.
ClockFn = _t.Callable[[], float]


@dataclasses.dataclass(slots=True)
class Span:
    """One timed unit of pipeline work, keyed to virtual time.  Its seven
    fields are exactly what :meth:`to_dict` writes; it holds no tracer."""

    span_id: int
    parent_id: int | None
    name: str
    stage: str  # "ingest" | "conformance" | "assertion" | "diagnosis" | ...
    start: float
    end: float | None = None
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def set(self, **attrs: _t.Any) -> "Span":
        """Attach attributes; values must be JSON-serialisable."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Deterministic span recorder bound to a virtual clock.

    Synchronous sections nest via the context manager :meth:`span` (a
    stack tracks the current parent).  Work that spans engine yields —
    assertion evaluations, fault-tree walks — uses :meth:`start_span` /
    :meth:`finish` and carries the span object through its generator
    frame; the parent is captured when the work is *triggered*, which is
    where it belongs causally.  :meth:`activate` temporarily re-enters a
    finished-or-floating span so synchronous callbacks fired from inside
    an async frame (e.g. diagnosis started by a failed assertion) parent
    correctly.
    """

    def __init__(self, clock: ClockFn | None = None) -> None:
        self._clock: ClockFn = clock if clock is not None else (lambda: 0.0)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- span creation ---------------------------------------------------

    def _new_span(self, name: str, stage: str, parent: Span | None, attrs: dict) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            stage=stage,
            start=self._clock(),
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def span(self, name: str, stage: str, **attrs: _t.Any):
        """Context manager for a synchronous (non-yielding) section: the
        span is the current parent inside it and ends on exit."""
        parent = self._stack[-1] if self._stack else None
        return _Scope(self, self._new_span(name, stage, parent, attrs))

    def start_span(
        self, name: str, stage: str, parent: Span | None = None, **attrs: _t.Any
    ) -> Span:
        """Open a span for work that outlives the current call frame.

        ``parent=None`` adopts the tracer's current synchronous span (the
        trigger site); pass a span explicitly to chain async stages.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        return self._new_span(name, stage, parent, attrs)

    def finish(self, span: Span, **attrs: _t.Any) -> None:
        """Close an explicit span at the current virtual time."""
        span.attrs.update(attrs)
        if span.end is None:
            span.end = self._clock()

    def _unstack(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # defensive: unwound out of order
            self._stack.remove(span)

    def activate(self, span: Span):
        """Temporarily make ``span`` the current parent for sync callbacks."""
        return _Activation(self, span)

    # -- export ------------------------------------------------------------

    def export(self) -> list[Span]:
        """The recorded spans themselves (a new list, no per-span copy), in
        creation (span-id) order."""
        return list(self.spans)


class _Activation:
    """Context manager pushing an existing span onto the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._unstack(self._span)


class _Scope(_Activation):
    """:meth:`Tracer.span`'s activation, which also ends the span on exit."""

    __slots__ = ()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.end = self._tracer._clock()
        self._tracer._unstack(self._span)
