"""Tests for the consistent AWS API layer (§IV)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions.consistent_api import MAX_RETRIES, ConsistentApiClient, ConsistentCallError
from repro.cloud.chaos import BlackholedCall
from repro.cloud.errors import MalformedRequest, ResourceNotFound, ServiceUnavailable, Throttling
from repro.sim.engine import Engine
from repro.sim.latency import ConstantLatency


class FlakyApi:
    """Scripted API double: raises the queued errors, then returns."""

    def __init__(self, errors=(), result="ok"):
        self.errors = list(errors)
        self.result = result
        self.calls = 0

    def operation(self):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.result


def call_timeout(p95):
    """The client's one timeout rule: every attempt may take the latency
    model's 95th percentile, plus 2 s of slack."""
    return p95 * (MAX_RETRIES + 1) + 2.0


def client_for(engine, api, **kwargs):
    """The shipped client over a 0.05 s constant-latency plane, whose
    call timeout is 0.05 s x 5 attempts + 2 s = 2.25 s."""
    kwargs.setdefault("latency", ConstantLatency(0.05))
    return ConsistentApiClient(engine, api, **kwargs)


class UnhurriedLatency(ConstantLatency):
    """0.1 s calls on a plane whose calibration saw a 0.4 s 95th
    percentile: the 4 s call timeout outlasts all five attempts and four
    full backoff windows (0.5 + 3.0 s), so a failing call exhausts its
    retries before its deadline."""

    def percentile(self, q):
        return 0.4


UNHURRIED = UnhurriedLatency(0.1)


def drive(engine, generator):
    return engine.run(until=engine.process(generator))


def elapsed_after(throttles, seed=0, **kwargs):
    """Virtual time one ``call`` takes to get through ``throttles``
    retryable errors (0.05 s per API call, jittered backoff between)."""
    engine = Engine()
    client = client_for(engine, FlakyApi(errors=[Throttling("x")] * throttles), seed=seed, **kwargs)
    drive(engine, client.call("operation"))
    return engine.now


class TestCall:
    def test_plain_success(self, engine):
        api = FlakyApi()
        client = client_for(engine, api)
        assert drive(engine, client.call("operation")) == "ok"
        assert client.calls_made == 1

    def test_retries_retryable_errors(self, engine):
        api = FlakyApi(errors=[Throttling("slow down"), ServiceUnavailable("oops")])
        client = client_for(engine, api)
        assert drive(engine, client.call("operation")) == "ok"
        assert api.calls == 3
        assert client.retries_made == 2

    def test_exponential_backoff_advances_time(self):
        # 4 calls x 0.05 latency, plus backoffs drawn from [0, 0.2],
        # [0, 0.4], [0, 0.8]: more than the latencies alone, never more
        # than the un-jittered schedule.
        for seed in range(5):
            assert 0.05 * 4 < elapsed_after(3, seed) <= 0.05 * 4 + 1.4
        # The window doubles per retry: the fourth backoff alone may add 1.6.
        assert 0.05 * 5 < elapsed_after(4) <= 0.05 * 5 + 3.0

    def test_non_retryable_raises_immediately(self, engine):
        api = FlakyApi(errors=[ResourceNotFound.of("ami", "ami-1")])
        client = client_for(engine, api)
        with pytest.raises(ResourceNotFound):
            drive(engine, client.call("operation"))
        assert api.calls == 1

    def test_retries_exhausted(self, engine):
        api = FlakyApi(errors=[Throttling("x")] * 50)
        client = client_for(engine, api, latency=UNHURRIED)
        assert client.call_timeout == call_timeout(0.4) > 0.1 * 5 + 3.0
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call("operation"))
        assert not excinfo.value.timed_out
        assert isinstance(excinfo.value.last_error, Throttling)
        assert api.calls == 1 + MAX_RETRIES

    def test_deadline_expiry_flags_timeout(self, engine):
        # Three 0.2 s calls outlast a 0.5 s deadline before the retries run out.
        api = FlakyApi(errors=[Throttling("x")] * 50)
        client = client_for(engine, api, latency=ConstantLatency(0.2))
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call("operation", deadline=0.5))
        assert excinfo.value.timed_out
        assert client.timeouts == 1

    def test_default_timeout_from_percentile(self, engine):
        from repro.sim.latency import LogNormalLatency

        latency = LogNormalLatency(median=0.1, sigma=0.3)
        client = ConsistentApiClient(engine, FlakyApi(), latency=latency)
        assert client.call_timeout == call_timeout(latency.percentile(0.95))


class TestCallUntil:
    def test_waits_for_predicate(self, engine):
        api = FlakyApi(result=3)
        values = iter([1, 2, 3])

        class Counting:
            def operation(self):
                return next(values)

        client = client_for(engine, Counting())
        result = drive(
            engine, client.call_until("operation", predicate=lambda v: v == 3, timeout=60)
        )
        assert result == 3

    def test_timeout_when_predicate_never_holds(self, engine):
        client = client_for(engine, FlakyApi(result="never-right"))
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(
                engine,
                client.call_until("operation", predicate=lambda v: False, timeout=3.0),
            )
        assert excinfo.value.timed_out

    def test_not_found_treated_as_staleness_until_deadline(self, engine):
        """A missing resource may be one another principal is creating or
        recreating — retry, then surface the error at the deadline."""
        api = FlakyApi(errors=[ResourceNotFound.of("ami", "a")] * 50)
        client = client_for(engine, api)
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call_until("operation", predicate=lambda v: True, timeout=2.0))
        assert isinstance(excinfo.value.last_error, ResourceNotFound)

    def test_resource_appearing_late_succeeds(self, engine):
        api = FlakyApi(errors=[ResourceNotFound.of("ami", "a")] * 2, result="found")
        client = client_for(engine, api)
        result = drive(
            engine, client.call_until("operation", predicate=lambda v: v == "found", timeout=30)
        )
        assert result == "found"

    def test_other_non_retryable_errors_propagate_immediately(self, engine):
        """Only a not-found is waited out; a validation error is an
        answer and must not be retried until the deadline."""
        api = FlakyApi(errors=[MalformedRequest("bad request")] * 50)
        client = client_for(engine, api)
        with pytest.raises(MalformedRequest):
            drive(engine, client.call_until("operation", predicate=lambda v: True, timeout=60))
        assert api.calls == 1

    def test_backoff_landing_exactly_on_deadline_times_out(self, engine):
        """A poll whose next backoff lands exactly on the deadline must
        time out rather than squeeze in one more call."""
        api = FlakyApi(result="nope")
        client = client_for(engine, api)
        # One 0.05 s call, then the 0.2 s first backoff would end on the deadline.
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(
                engine,
                client.call_until("operation", predicate=lambda v: False, timeout=0.05 + 0.2),
            )
        assert excinfo.value.timed_out
        assert api.calls == 1
        # A predicate timeout is a state answer, not an API-plane failure.
        assert not excinfo.value.degraded

    def test_outer_deadline_propagates_into_inner_calls(self, engine):
        """Inner retries must never outlive the outer call_until deadline,
        even when the client's own call timeout is much larger."""
        api = FlakyApi(errors=[Throttling("x")] * 1000)
        client = client_for(engine, api, latency=ConstantLatency(2.0))
        assert client.call_timeout == call_timeout(2.0) == 12.0
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call_until("operation", predicate=lambda v: True, timeout=5.0))
        assert excinfo.value.timed_out
        assert engine.now == pytest.approx(5.0, abs=0.2)


class TestCounterSplit:
    def test_retry_exhaustion_is_not_a_timeout(self, engine):
        api = FlakyApi(errors=[Throttling("x")] * 50)
        client = client_for(engine, api, latency=UNHURRIED)
        with pytest.raises(ConsistentCallError):
            drive(engine, client.call("operation"))
        assert client.retry_exhaustions == 1
        assert client.timeouts == 0

    def test_deadline_expiry_is_not_an_exhaustion(self, engine):
        api = FlakyApi(errors=[Throttling("x")] * 50)
        client = client_for(engine, api, latency=ConstantLatency(0.2))
        with pytest.raises(ConsistentCallError):
            drive(engine, client.call("operation", deadline=0.5))
        assert client.timeouts == 1
        assert client.retry_exhaustions == 0

    def test_counters_export(self, engine):
        client = client_for(engine, FlakyApi())
        drive(engine, client.call("operation"))
        counters = client.counters()
        assert counters["calls"] == 1
        assert set(counters) == {
            "calls", "retries", "timeouts", "retry_exhaustions", "blackholes",
        }


class TestJitter:
    def test_always_on_same_seed_same_schedule(self):
        """No opt-in: a client built on defaults jitters, from its own
        seeded stream — a pure function of the seed."""
        by_seed = {seed: elapsed_after(3, seed) for seed in range(8)}
        assert len(set(by_seed.values())) == len(by_seed)
        for seed, elapsed in by_seed.items():
            assert elapsed == elapsed_after(3, seed)

    def test_full_jitter_shortens_or_equals_backoff(self):
        plain = 0.05 * 4 + 0.2 + 0.4 + 0.8  # the un-jittered schedule
        jittered = elapsed_after(3, seed=9)
        assert 0.05 * 4 <= jittered <= plain
        # Deterministic per seed.
        assert jittered == elapsed_after(3, seed=9)


class TestDegradation:
    def test_chaos_tagged_errors_mark_failure_degraded(self, engine):
        errors = []
        for _ in range(1 + MAX_RETRIES):
            error = ServiceUnavailable("chaos burst")
            error.chaos = True
            errors.append(error)
        api = FlakyApi(errors=errors)
        client = client_for(engine, api, latency=UNHURRIED)
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call("operation"))
        assert excinfo.value.degraded

    def test_genuine_errors_are_not_degraded(self, engine):
        api = FlakyApi(errors=[Throttling("x")] * 50)
        client = client_for(engine, api, latency=UNHURRIED)
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call("operation"))
        assert not excinfo.value.degraded

    def test_blackhole_burns_deadline_and_times_out_degraded(self, engine):
        api = FlakyApi(errors=[BlackholedCall("chaos: void")])
        client = client_for(engine, api)
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call("operation"))
        assert excinfo.value.timed_out
        assert excinfo.value.degraded
        assert client.blackholes == 1
        assert client.timeouts == 1
        # The hang consumed exactly the remaining deadline.
        assert engine.now == pytest.approx(client.call_timeout) == call_timeout(0.05)


def drawn_error(kind):
    if kind == "retryable":
        return Throttling("x")
    if kind == "chaos":
        error = ServiceUnavailable("chaos burst")
        error.chaos = True
        return error
    if kind == "fatal":
        return MalformedRequest("bad request")
    return BlackholedCall("chaos: void")


class TestCallBounds:
    """Every ``call`` is bounded by its retries and its deadline alone,
    whatever the plane answers, attempt by attempt.  A drawn plane answers
    retryable errors (chaos-tagged or not), then ends in one success, one
    non-retryable error or one blackhole: nothing after that is asked."""

    @settings(max_examples=300, deadline=None)
    @given(
        retried=st.lists(st.sampled_from(("retryable", "chaos")), max_size=2 * (MAX_RETRIES + 1)),
        last=st.sampled_from(("success", "fatal", "blackhole")),
        latency=st.sampled_from([0.05, 0.3, 1.0]),
        deadline=st.none() | st.floats(min_value=0.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_attempts_deadline_answers_and_degradation(self, retried, last, latency, deadline, seed):
        kinds = retried if last == "success" else [*retried, last]
        errors = [drawn_error(kind) for kind in kinds]
        engine = Engine()
        api = FlakyApi(errors=list(errors))
        client = client_for(engine, api, latency=ConstantLatency(latency), seed=seed)
        bound = client.call_timeout if deadline is None else min(client.call_timeout, deadline)
        try:
            result = drive(engine, client.call("operation", deadline=deadline))
        except ConsistentCallError as exc:
            seen = kinds[: api.calls]
            assert exc.degraded == any(kind in ("chaos", "blackhole") for kind in seen)
            assert "fatal" not in seen
        except MalformedRequest as exc:
            # A non-retryable error is the answer of the attempt that drew it.
            assert exc is errors[-1]
            assert api.calls == len(kinds)
        else:
            assert result == "ok"
            assert api.calls == len(kinds) + 1
        assert api.calls <= MAX_RETRIES + 1
        assert engine.now <= bound + 1e-9
