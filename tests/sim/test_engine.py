"""Tests for the discrete-event engine and processes."""

import gc

import pytest

from repro.sim.engine import Engine, Interrupt, Process


def make_waiter(engine, delays, trace):
    def proc():
        for delay in delays:
            yield engine.timeout(delay)
            trace.append(engine.now)

    return proc()


class TestEngineBasics:
    def test_run_drains_queue(self, engine):
        trace = []
        engine.process(make_waiter(engine, [1, 2, 3], trace))
        engine.run()
        assert trace == [1.0, 3.0, 6.0]

    def test_run_until_time_stops_clock_exactly(self, engine):
        trace = []
        engine.process(make_waiter(engine, [10, 10], trace))
        engine.run(until=15.0)
        assert engine.now == 15.0
        assert trace == [10.0]

    def test_run_until_past_time_rejected(self, engine):
        engine.run(until=10.0)
        with pytest.raises(ValueError):
            engine.run(until=5.0)

    def test_peek_returns_next_event_time(self, engine):
        engine.timeout(7.0)
        assert engine.peek() == 7.0

    def test_peek_empty_returns_inf(self, engine):
        assert engine.peek() == float("inf")

    def test_deterministic_ordering_at_same_time(self, engine):
        order = []

        def proc(name):
            yield engine.timeout(5.0)
            order.append(name)

        engine.process(proc("a"))
        engine.process(proc("b"))
        engine.process(proc("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_two_engines_same_schedule_identical(self):
        def run_one():
            engine = Engine()
            trace = []
            engine.process(make_waiter(engine, [1.5, 2.5, 0.5], trace))
            engine.process(make_waiter(engine, [2.0, 2.0], trace))
            engine.run()
            return trace

        assert run_one() == run_one()


class TestProcess:
    def test_process_returns_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return 42

        process = engine.process(proc())
        result = engine.run(until=process)
        assert result == 42

    def test_process_waits_on_process(self, engine):
        def child():
            yield engine.timeout(3.0)
            return "done"

        def parent():
            value = yield engine.process(child())
            return (engine.now, value)

        result = engine.run(until=engine.process(parent()))
        assert result == (3.0, "done")

    def test_is_alive(self, engine):
        def proc():
            yield engine.timeout(1.0)

        process = engine.process(proc())
        assert process.is_alive
        engine.run()
        assert not process.is_alive

    def test_yield_non_event_raises(self, engine):
        def proc():
            yield 17

        engine.process(proc())
        with pytest.raises(TypeError):
            engine.run()

    def test_yielding_a_generator_names_the_missing_from(self, engine):
        """``yield client.call(...)`` for ``yield from client.call(...)``."""

        def call():
            yield engine.timeout(1.0)

        def proc():
            yield call()

        engine.process(proc(), name="upgrade")
        with pytest.raises(TypeError) as raised:
            engine.run()
        assert str(raised.value) == (
            "process 'upgrade' yielded a generator; drive sub-generators with 'yield from'"
        )

    def test_exception_delivered_to_waiter(self, engine):
        def child():
            yield engine.timeout(1.0)
            raise ValueError("child failed")

        def parent():
            try:
                yield engine.process(child())
            except ValueError as exc:
                return f"caught: {exc}"

        result = engine.run(until=engine.process(parent()))
        assert result == "caught: child failed"

    def test_unwaited_crash_propagates(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise RuntimeError("fire and forget crash")

        engine.process(proc())
        with pytest.raises(RuntimeError, match="fire and forget"):
            engine.run()

    def test_interrupt_wakes_process(self, engine):
        log = []

        def proc():
            try:
                yield engine.timeout(100.0)
            except Interrupt as interrupt:
                log.append((engine.now, interrupt.cause))

        process = engine.process(proc())

        def interrupter():
            yield engine.timeout(5.0)
            process.interrupt("stop it")

        engine.process(interrupter())
        engine.run()
        assert log == [(5.0, "stop it")]

    def test_interrupt_dead_process_is_noop(self, engine):
        def proc():
            yield engine.timeout(1.0)

        process = engine.process(proc())
        engine.run()
        process.interrupt()  # should not raise
        engine.run()

    def test_uncaught_interrupt_terminates_process(self, engine):
        def proc():
            yield engine.timeout(100.0)

        process = engine.process(proc())

        def interrupter():
            yield engine.timeout(1.0)
            process.interrupt()

        engine.process(interrupter())
        engine.run()
        assert not process.is_alive

    def test_run_until_failed_event_raises(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise KeyError("nope")

        process = engine.process(proc())
        # Register interest so the failure is delivered, then re-raised.
        with pytest.raises(KeyError):
            engine.run(until=process)

    def test_run_until_processed_event_returns_without_draining(self, engine):
        """Regression: run(until=<already-processed event>) must return at
        once.  The seed appended a stop callback that could never fire
        (the event will never be popped again) and drained the entire
        queue instead."""

        def proc():
            yield engine.timeout(1.0)
            return 42

        def far_future():
            yield engine.timeout(1000.0)

        engine.process(far_future())
        process = engine.process(proc())
        assert engine.run(until=process) == 42
        assert engine.now == 1.0
        # Asking again for the same (processed) sentinel: immediate answer,
        # no queue drain — the far-future timer must not run.
        assert engine.run(until=process) == 42
        assert engine.now == 1.0

    def test_run_until_processed_failed_event_reraises(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise KeyError("nope")

        def far_future():
            yield engine.timeout(1000.0)

        engine.process(far_future())
        process = engine.process(proc())
        with pytest.raises(KeyError):
            engine.run(until=process)
        with pytest.raises(KeyError):
            engine.run(until=process)
        assert engine.now == 1.0

    def test_process_name_default_and_repr(self, engine):
        def myproc():
            yield engine.timeout(0)

        process = engine.process(myproc(), name="worker")
        assert process.name == "worker"
        assert "worker" in repr(process)


class TestGeneratorHelpers:
    def test_yield_from_composition(self, engine):
        def inner():
            yield engine.timeout(2.0)
            return "inner-value"

        def outer():
            value = yield from inner()
            yield engine.timeout(1.0)
            return value + "!"

        result = engine.run(until=engine.process(outer()))
        assert result == "inner-value!"
        assert engine.now == 3.0


class TestDispatchGolden:
    """Pins the (time, process) order in which the engine resumes
    processes — the heap's (time, priority, seq) order seen from outside.
    Any change to how events are scheduled or processes resumed that moves
    a line here moves every campaign outcome with it."""

    @staticmethod
    def _scenario(engine, trace):
        def ticker(name, delays):
            for delay in delays:
                trace.append((engine.now, name, "tick"))
                yield engine.timeout(delay)
            trace.append((engine.now, name, "done"))
            return name

        def sleeper():
            try:
                trace.append((engine.now, "sleeper", "sleep"))
                yield engine.timeout(100.0)
            except Interrupt as interrupt:
                trace.append((engine.now, "sleeper", f"interrupted:{interrupt.cause}"))
                yield engine.timeout(1.0)
                trace.append((engine.now, "sleeper", "resumed"))

        def stubborn():
            trace.append((engine.now, "stubborn", "sleep"))
            yield engine.timeout(100.0)
            trace.append((engine.now, "stubborn", "unreachable"))

        def crasher(name, delay):
            trace.append((engine.now, name, "start"))
            yield engine.timeout(delay)
            trace.append((engine.now, name, "crash"))
            raise ValueError(name)

        def waiter(target):
            trace.append((engine.now, "waiter", "wait"))
            try:
                yield target
            except ValueError as exc:
                trace.append((engine.now, "waiter", f"caught:{exc}"))
            joined = yield engine.process(ticker("child", [1.0]), name="child")
            trace.append((engine.now, "waiter", f"joined:{joined}"))

        def interrupter(*targets):
            yield engine.timeout(2.0)
            for target in targets:
                trace.append((engine.now, "interrupter", f"interrupt:{target.name}"))
                target.interrupt("enough")
            # A second interrupt in the same instant reaches a live process
            # once more and a finished one not at all.
            targets[0].interrupt("again")

        a = engine.process(ticker("a", [1.0, 1.0, 1.0]), name="a")
        b = engine.process(ticker("b", [2.0, 1.0]), name="b")
        s = engine.process(sleeper(), name="sleeper")
        u = engine.process(stubborn(), name="stubborn")
        doomed = engine.process(crasher("doomed", 2.0), name="doomed")
        engine.process(waiter(doomed), name="waiter")
        engine.process(interrupter(s, u), name="interrupter")
        return a, b, s, u

    GOLDEN = [
        (0.0, "a", "tick"),
        (0.0, "b", "tick"),
        (0.0, "sleeper", "sleep"),
        (0.0, "stubborn", "sleep"),
        (0.0, "doomed", "start"),
        (0.0, "waiter", "wait"),
        (1.0, "a", "tick"),
        (2.0, "b", "tick"),
        (2.0, "doomed", "crash"),
        (2.0, "interrupter", "interrupt:sleeper"),
        (2.0, "interrupter", "interrupt:stubborn"),
        (2.0, "a", "tick"),
        (2.0, "waiter", "caught:doomed"),
        (2.0, "sleeper", "interrupted:enough"),
        (2.0, "child", "tick"),
        (3.0, "b", "done"),
        (3.0, "a", "done"),
        (3.0, "child", "done"),
        (3.0, "waiter", "joined:child"),
    ]

    def test_interleaving_interrupt_and_waited_crash(self, engine):
        trace = []
        a, b, s, u = self._scenario(engine, trace)
        engine.run()
        assert trace == self.GOLDEN
        # The abandoned 100 s timeouts still fire, into processes long gone.
        assert engine.now == 100.0
        assert (a.value, b.value) == ("a", "b")
        # The second interrupt hit the sleeper inside its handler's wait:
        # uncaught there, it ended the process; the stubborn one ended at
        # the first.
        assert not s.is_alive and s.value is None
        assert not u.is_alive and u.value is None

    def test_unwaited_crash_surfaces_at_its_dispatch(self, engine):
        trace = []

        def crasher():
            yield engine.timeout(1.5)
            trace.append((engine.now, "crasher", "crash"))
            raise KeyError("nobody waits")

        def bystander():
            for _ in range(3):
                trace.append((engine.now, "bystander", "tick"))
                yield engine.timeout(1.0)

        engine.process(bystander(), name="bystander")
        engine.process(crasher(), name="crasher")
        with pytest.raises(KeyError, match="nobody waits"):
            engine.run()
        assert trace == [
            (0.0, "bystander", "tick"),
            (1.0, "bystander", "tick"),
            (1.5, "crasher", "crash"),
        ]
        # The engine is still usable: the bystander's next wake is queued.
        engine.run()
        assert trace[-1] == (2.0, "bystander", "tick") and engine.now == 3.0

    def test_run_until_processed_event_dispatches_nothing(self, engine):
        trace = []
        a, b, _s, _u = self._scenario(engine, trace)
        assert engine.run(until=b) == "b"
        # b's completion event is queued when b returns, behind the wakes
        # of a and child already due at t=3; child's own completion event
        # (what the waiter joins on) is queued behind b's and has not run.
        assert trace == self.GOLDEN[:18]
        seen = len(trace)
        assert engine.run(until=b) == "b"
        assert len(trace) == seen and engine.now == 3.0
        engine.run()
        assert trace == self.GOLDEN


class TestClose:
    """`Engine.close()`: the end of a simulation (DESIGN §8 "Run
    lifecycle").  Nothing pending fires, every suspended generator is
    closed once and in the order it would have run, and the engine says
    so when used again."""

    @staticmethod
    def _sleeper(engine, name, delay, log):
        def proc():
            try:
                yield engine.timeout(delay)
                log.append((name, "woke"))
            finally:
                log.append((name, "finally"))

        return engine.process(proc(), name=name)

    def test_pending_events_never_fire(self, engine):
        log, fired = [], []
        self._sleeper(engine, "a", 5.0, log)
        engine.timeout(1.0).callbacks.append(fired.append)
        engine.run(until=0.5)
        engine.close()
        assert fired == [] and ("a", "woke") not in log
        assert engine.peek() == float("inf")
        assert engine.now == 0.5  # closing does not advance the clock

    def test_finally_blocks_run_once_in_queue_order(self, engine):
        log = []
        # Created out of wake order; two share an instant (creation order
        # breaks the tie, as it does for dispatch).
        self._sleeper(engine, "late", 9.0, log)
        self._sleeper(engine, "early", 1.0, log)
        self._sleeper(engine, "tie-1", 4.0, log)
        self._sleeper(engine, "tie-2", 4.0, log)
        engine.run(until=0.5)
        engine.close()
        assert log == [
            ("early", "finally"), ("tie-1", "finally"), ("tie-2", "finally"), ("late", "finally"),
        ]
        engine.close()  # twice is a no-op
        assert len(log) == 4

    def test_never_started_process_is_closed_without_running(self, engine):
        log = []
        process = self._sleeper(engine, "unborn", 1.0, log)  # bootstrap still queued
        engine.close()
        # A generator that never started has no `finally` to run.
        assert log == [] and process.is_alive and process._generator.gi_frame is None

    def test_waiters_on_a_suspended_process_are_released_after_it(self, engine):
        log = []
        child = self._sleeper(engine, "child", 5.0, log)

        def parent():
            try:
                yield child
            finally:
                log.append(("parent", "finally"))

        engine.process(parent(), name="parent")
        engine.run(until=1.0)
        engine.close()
        assert log == [("child", "finally"), ("parent", "finally")]

    def test_process_parked_on_an_untriggered_event_is_released(self, engine):
        log = []

        def waiter(gate):
            try:
                yield gate
            finally:
                log.append("released")

        # Nothing but the waiter's own frame holds the gate: without the
        # engine's parked set the pair would be unreachable cyclic garbage.
        process = engine.process(waiter(engine.event()), name="waiter")
        engine.run()
        assert process.is_alive and log == []
        engine.close()
        assert log == ["released"]

    def test_triggering_unparks(self, engine):
        gate = engine.event()

        def waiter():
            return (yield gate)

        process = engine.process(waiter())
        engine.run()
        assert list(engine._parked) == [gate]
        gate.succeed("go")
        assert not engine._parked
        assert engine.run(until=process) == "go"

    def test_any_of_waiter_is_released(self, engine):
        log = []

        def racer():
            try:
                yield engine.any_of([engine.timeout(3.0), engine.timeout(7.0)])
            finally:
                log.append("released")

        engine.process(racer())
        engine.run(until=1.0)
        engine.close()
        assert log == ["released"]

    def test_use_after_close_raises(self, engine):
        gate = engine.event()
        engine.close()

        def proc():
            yield engine.timeout(1.0)

        for use in (
            engine.run,
            lambda: engine.run(until=5.0),
            lambda: engine.process(proc()),
            lambda: engine.timeout(1.0),
            lambda: engine.event().succeed(),
            lambda: gate.fail(ValueError("late")),
        ):
            with pytest.raises(RuntimeError) as raised:
                use()
            assert str(raised.value) == "engine closed"

    def test_close_from_inside_a_callback_is_refused(self, engine):
        log = []
        self._sleeper(engine, "bystander", 5.0, log)

        def closer():
            yield engine.timeout(1.0)
            engine.close()

        engine.process(closer(), name="closer")
        with pytest.raises(RuntimeError, match="from inside one of its callbacks"):
            engine.run()
        # Refused means untouched: the bystander still runs to its wake.
        engine.run()
        assert log == [("bystander", "woke"), ("bystander", "finally")]

    def test_close_from_a_plain_callback_of_step_is_refused(self, engine):
        engine.timeout(1.0).callbacks.append(lambda _event: engine.close())
        with pytest.raises(RuntimeError, match="from inside one of its callbacks"):
            engine.step()
        engine.close()  # fine from outside

    def test_closed_run_leaves_no_cyclic_garbage(self):
        def build_and_close():
            engine = Engine()
            log = []
            child = self._sleeper(engine, "child", 50.0, log)

            def parent(gate):
                yield child
                yield gate

            engine.process(parent(engine.event()))
            self._sleeper(engine, "other", 10.0, log)
            engine.run(until=5.0)
            engine.close()

        gc.collect()
        gc.disable()
        try:
            build_and_close()
            assert gc.collect() == 0
        finally:
            gc.enable()
