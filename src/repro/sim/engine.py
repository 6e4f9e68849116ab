"""The discrete-event engine.

A minimal, deterministic SimPy-style event loop.  Simulation *processes*
are Python generators that ``yield`` :class:`~repro.sim.events.Event`
objects; the engine resumes them when those events fire.  Determinism is
guaranteed by a (time, priority, sequence) heap ordering — two runs with
the same seed and the same schedule produce identical traces, which the
evaluation harness relies on.
"""

from __future__ import annotations

import heapq
import itertools
import typing as _t

from repro.sim.clock import SimClock
from repro.sim.events import PENDING, SUCCEEDED, AnyOf, Event, Timeout

#: Priority for ordinary events.
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Engine.run` at a target event."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The paper's operations get cancelled by concurrent interference (e.g. a
    scale-in terminating the instance an upgrade step is waiting on);
    interrupts model that preemption.
    """

    def __init__(self, cause: _t.Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it fires when the generator finishes,
    carrying the generator's return value — so processes can wait on each
    other (``yield other_process``).
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, engine: "Engine", generator: _t.Generator, name: str | None = None) -> None:
        super().__init__(engine)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        # Kick off the process at the current time.
        bootstrap = Event(engine)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: _t.Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            return
        event = Event(self.engine)
        event.callbacks.append(self._deliver_interrupt)
        event.fail(Interrupt(cause))

    def _deliver_interrupt(self, event: Event) -> None:
        if self._target is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome (value or exception)."""
        if self._state != PENDING:
            return
        self._target = None
        try:
            if event._state == SUCCEEDED:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as normal termination.
            self.succeed(None)
            return
        except Exception as exc:
            # The process crashed. If somebody is waiting on it, deliver the
            # exception to them (SimPy-style); otherwise it is a
            # fire-and-forget process and the error must not vanish.
            if self.callbacks:
                self.fail(exc)
                return
            raise
        if not isinstance(target, Event):
            if isinstance(target, _t.Generator):  # a forgotten `from`
                raise TypeError(
                    f"process {self.name!r} yielded a generator; "
                    "drive sub-generators with 'yield from'"
                )
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
        self._target = target
        target.callbacks.append(self._resume)
        if target._state == PENDING:  # not in the queue: `close` finds it here
            self.engine._parked[target] = None

    def _release(self) -> None:
        """Teardown: end the generator (its ``finally`` runs now), then the waiters."""
        self._generator.close()
        super()._release()

    def __repr__(self) -> str:
        return f"<Process {self.name} {'alive' if self.is_alive else 'done'}>"


class Engine:
    """Deterministic discrete-event loop with a virtual clock."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = itertools.count()
        #: Untriggered events a process waits on, in parking order.
        self._parked: dict[Event, None] = {}
        self._dispatching = False
        self._closed = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock._now

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        if self._closed:
            raise RuntimeError("engine closed")
        heapq.heappush(
            self._queue, (self.clock._now + delay, priority, next(self._sequence), event)
        )

    def event(self) -> Event:
        """Create a fresh untriggered event bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event that fires ``delay`` virtual seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: _t.Sequence[Event]) -> AnyOf:
        """An event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def process(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Start a new simulation process from ``generator``."""
        return Process(self, generator, name=name)

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Pop and dispatch the next event. Raises IndexError when empty."""
        time, _priority, _seq, event = heapq.heappop(self._queue)
        self.clock.advance_to(time)
        event.processed = True
        callbacks, event.callbacks = event.callbacks, []
        self._dispatching = True
        try:
            for callback in callbacks:
                callback(event)
        finally:
            self._dispatching = False

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: float | Event | None = None) -> _t.Any:
        """Run until the queue drains, a time is reached, or an event fires.

        - ``until=None``: run the queue to exhaustion.
        - ``until=<float>``: run events up to and including that time, then
          set the clock to exactly that time.
        - ``until=<Event>``: run until that event fires; returns its value
          (raising if the event failed).
        """
        if self._closed:
            raise RuntimeError("engine closed")
        if isinstance(until, Event):
            sentinel = until

            def _stop(_event: Event) -> None:
                raise StopSimulation

            if sentinel.processed:
                # Already dispatched: its callbacks ran and it will never
                # be popped again, so a stop callback would never fire.
                # Return its value immediately instead of draining the
                # entire queue and relying on the post-loop check.
                if not sentinel.ok:
                    raise sentinel.value
                return sentinel.value
            sentinel.callbacks.append(_stop)
            try:
                while self._queue:
                    self.step()
            except StopSimulation:
                if not sentinel.ok:
                    raise sentinel.value
                return sentinel.value
            if sentinel.triggered:
                if not sentinel.ok:
                    raise sentinel.value
                return sentinel.value
            raise RuntimeError("event queue drained before `until` event fired")

        if until is None:
            while self._queue:
                self.step()
            return None

        horizon = float(until)
        if horizon < self.now:
            raise ValueError(f"cannot run until {horizon}: already at {self.now}")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self.clock.advance_to(horizon)
        return None

    def close(self) -> None:
        """End the simulation (DESIGN.md §8 "Run lifecycle"): pending events
        never fire; suspended generators are closed once each, in queue order
        then parking order.  Later use raises ``RuntimeError("engine closed")``;
        closing twice is a no-op.
        """
        if self._dispatching:
            raise RuntimeError("cannot close the engine from inside one of its callbacks")
        if self._closed:
            return
        self._closed = True
        pending = [entry[3] for entry in sorted(self._queue)] + list(self._parked)
        self._queue.clear()
        self._parked.clear()
        for event in pending:
            event._release()

    def __repr__(self) -> str:
        return f"Engine(now={self.now:.3f}, pending={len(self._queue)})"
