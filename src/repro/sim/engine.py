"""The discrete-event engine.

A minimal, deterministic event loop with one event kind.  Simulation
*processes* are Python generators that ``yield`` a :class:`Timeout`; the
engine resumes them when it fires.  Nothing waits on a process except
:meth:`Engine.run` (``until=process``), so a process that ends schedules
nothing.  Determinism is guaranteed by a (time, sequence) heap ordering —
two runs with the same seed and the same schedule produce identical
traces, which the evaluation harness relies on.
"""

from __future__ import annotations

import heapq
import itertools
import typing as _t

from repro.sim.clock import SimClock


class Timeout:
    """A wake-up ``delay`` virtual seconds after its creation.

    Scheduled when created; its callbacks run when the engine pops it.
    Slotted: campaigns create millions (every wait, API call and retry
    allocates one), so skipping the per-instance dict is a measurable
    allocation win on the hot path.
    """

    __slots__ = ("callbacks",)

    def __init__(self, engine: "Engine", delay: float) -> None:
        if not delay >= 0:  # NaN too: it would never fire
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        self.callbacks: list[_t.Callable[["Timeout"], None]] = []
        engine._schedule(self, delay)


class Process:
    """A running simulation process wrapping a generator.

    Started by a zero-delay :class:`Timeout`; each ``Timeout`` the
    generator yields resumes it when it fires.  When the generator
    returns, :attr:`value` holds what it returned; an exception it raises
    propagates out of :meth:`Engine.step`.
    """

    __slots__ = ("_generator", "name", "is_alive", "value")

    def __init__(self, engine: "Engine", generator: _t.Generator, name: str | None = None) -> None:
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: True while the underlying generator has not returned.
        self.is_alive = True
        self.value: _t.Any = None
        Timeout(engine, 0.0).callbacks.append(self._resume)

    def _resume(self, _timeout: Timeout) -> None:
        """Advance the generator to its next ``Timeout`` (or its end)."""
        try:
            target = self._generator.send(None)
        except StopIteration as stop:
            self.is_alive = False
            self.value = stop.value
            return
        if type(target) is not Timeout:
            if isinstance(target, _t.Generator):  # a forgotten `from`
                raise TypeError(
                    f"process {self.name!r} yielded a generator; "
                    "drive sub-generators with 'yield from'"
                )
            raise TypeError(
                f"process {self.name!r} yielded {target!r}; processes must yield a Timeout"
            )
        target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        return f"<Process {self.name} {'alive' if self.is_alive else 'done'}>"


class Engine:
    """Deterministic discrete-event loop with a virtual clock."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self._queue: list[tuple[float, int, Timeout]] = []
        self._sequence = itertools.count()
        self._dispatching = False
        self._closed = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock._now

    # -- scheduling ------------------------------------------------------

    def _schedule(self, timeout: Timeout, delay: float) -> None:
        if self._closed:
            raise RuntimeError("engine closed")
        heapq.heappush(self._queue, (self.clock._now + delay, next(self._sequence), timeout))

    def timeout(self, delay: float) -> Timeout:
        """A wake-up ``delay`` virtual seconds from now."""
        return Timeout(self, delay)

    def process(self, generator: _t.Generator, name: str | None = None) -> Process:
        """Start a new simulation process from ``generator``."""
        return Process(self, generator, name=name)

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Pop the next timeout and run its callbacks. Raises IndexError when empty."""
        time, _seq, timeout = heapq.heappop(self._queue)
        self.clock.advance_to(time)
        callbacks, timeout.callbacks = timeout.callbacks, []
        self._dispatching = True
        try:
            for callback in callbacks:
                callback(timeout)
        finally:
            self._dispatching = False

    def peek(self) -> float:
        """Time of the next scheduled timeout, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: float | Process | None = None) -> _t.Any:
        """Run until the queue drains, a time is reached, or a process ends.

        - ``until=None``: run the queue to exhaustion.
        - ``until=<float>``: run events up to and including that time, then
          set the clock to exactly that time.
        - ``until=<Process>``: run until that process returns; returns its
          value (at once if it already has).
        """
        if self._closed:
            raise RuntimeError("engine closed")
        if isinstance(until, Process):
            while until.is_alive and self._queue:
                self.step()
            if until.is_alive:
                raise RuntimeError(f"event queue drained before {until!r} returned")
            return until.value

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
        """End the simulation (DESIGN.md §8 "Run lifecycle"): pending timeouts
        never fire and the generators waiting on them are closed, once each,
        in queue order.  Later use raises ``RuntimeError("engine closed")``;
        closing twice is a no-op.
        """
        if self._dispatching:
            raise RuntimeError("cannot close the engine from inside one of its callbacks")
        if self._closed:
            return
        self._closed = True
        pending = [timeout for _time, _seq, timeout in sorted(self._queue)]
        self._queue.clear()
        for timeout in pending:
            callbacks, timeout.callbacks = timeout.callbacks, []
            for callback in callbacks:
                waiter = getattr(callback, "__self__", None)
                if isinstance(waiter, Process):
                    waiter._generator.close()

    def __repr__(self) -> str:
        return f"Engine(now={self.now:.3f}, pending={len(self._queue)})"
