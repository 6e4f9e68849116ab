"""Awaitable primitives for the discrete-event engine.

The design follows the classic SimPy shape: a :class:`Event` can be
*triggered* (succeeded or failed); simulation processes ``yield`` events and
are resumed when the event fires.  We implement only the primitives the
reproduction needs — plain events, timeouts, and a disjunctive wait — to
keep the engine small and auditable.
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

PENDING = "pending"
SUCCEEDED = "succeeded"
FAILED = "failed"


class Event:
    """A one-shot occurrence that processes can wait on.

    Events move from *pending* to either *succeeded* (carrying a value) or
    *failed* (carrying an exception).  Callbacks registered before the
    trigger run when the engine pops the event from its queue.

    Slotted: campaigns create millions of events (every timeout, API
    call and retry allocates one), so skipping the per-instance dict is
    a measurable allocation win on the hot path.
    """

    __slots__ = ("engine", "callbacks", "_state", "_value", "processed")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[_t.Callable[["Event"], None]] = []
        self._state = PENDING
        self._value: _t.Any = None
        #: Set by the engine when the event is dispatched (callbacks run).
        self.processed = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._state != PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._state == SUCCEEDED

    @property
    def value(self) -> _t.Any:
        """The success value or failure exception."""
        return self._value

    def succeed(self, value: _t.Any = None) -> "Event":
        """Trigger the event successfully, scheduling callbacks *now*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._state = SUCCEEDED
        self._value = value
        self.engine._parked.pop(self, None)
        self.engine._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes see ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = FAILED
        self._value = exception
        self.engine._parked.pop(self, None)
        self.engine._schedule(self, delay=0.0)
        return self

    def _release(self) -> None:
        """Teardown: drop the waiters, releasing each that is itself an event."""
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            waiter = getattr(callback, "__self__", None)
            if isinstance(waiter, Event):
                waiter._release()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._state}>"


class Timeout(Event):
    """An event that fires after a fixed virtual delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: _t.Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._state = SUCCEEDED
        self._value = value
        engine._schedule(self, delay=delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class AnyOf(Event):
    """Fires as soon as any of the given events fires.

    Its value is a dict mapping the already-fired events to their values.
    Used by the timer subsystem to race a periodic timer against a
    cancellation event.
    """

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: _t.Sequence[Event]) -> None:
        super().__init__(engine)
        if not events:
            raise ValueError("AnyOf requires at least one event")
        self.events = list(events)
        for event in self.events:
            if event.processed:
                self._on_fire(event)
                break
            event.callbacks.append(self._on_fire)

    def _on_fire(self, fired_event: Event) -> None:
        if self.triggered:
            return
        fired = {e: e.value for e in self.events if e.processed or e is fired_event}
        self.succeed(fired)
