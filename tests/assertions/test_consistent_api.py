"""Tests for the consistent AWS API layer (§IV)."""

import pytest

from repro.assertions.consistent_api import (
    MAX_RETRIES,
    CircuitBreaker,
    ConsistentApiClient,
    ConsistentCallError,
    RetryBudget,
)
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
        """A missing resource may just be a stale replica — retry, then
        surface the error at the deadline."""
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
        """Only a not-found can be staleness; a validation error is an
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
            "calls", "retries", "timeouts", "retry_exhaustions",
            "budget_denials", "breaker_trips", "breaker_fast_fails", "blackholes",
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


class TestRetryBudget:
    def test_token_bucket_refills(self):
        budget = RetryBudget(capacity=2.0, refill_rate=1.0)
        assert budget.try_spend(0.0)
        assert budget.try_spend(0.0)
        assert not budget.try_spend(0.0)
        assert budget.try_spend(1.0)  # one token refilled after 1s

    def test_exhausted_budget_fails_fast(self, engine):
        api = FlakyApi(errors=[Throttling("x")] * 50)
        client = client_for(
            engine, api, latency=UNHURRIED, retry_budget=RetryBudget(capacity=2.0, refill_rate=0.0)
        )
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call("operation"))
        assert client.budget_denials == 1
        assert api.calls == 3  # initial + 2 budgeted retries
        assert not excinfo.value.timed_out

    def test_every_client_has_a_budget(self, engine):
        """Built on defaults: 32 tokens, refilled at 0.75/s, shared by every
        method's retries.  Each method's breaker opens during its second
        failing call, so a storm across methods is what spends the bucket."""

        class Storm:
            calls = 0

            def __getattr__(self, method):
                def fail():
                    Storm.calls += 1
                    raise Throttling(method)

                return fail

        client = client_for(engine, Storm(), latency=UNHURRIED)
        assert (client.retry_budget.capacity, client.retry_budget.refill_rate) == (32.0, 0.75)
        for method in (f"op{index}" for index in range(40)):
            for _ in range(2):
                with pytest.raises(ConsistentCallError) as excinfo:
                    drive(engine, client.call(method))
            if client.budget_denials:
                break
        assert client.budget_denials == 1
        assert not excinfo.value.timed_out and not excinfo.value.breaker_open
        # Every retry but those the bucket refilled was paid from its 32 tokens.
        assert client.retries_made <= 32 + engine.now * 0.75
        # Each client draws on its own bucket.
        assert client_for(engine, Storm()).retry_budget is not client.retry_budget

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0.0)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0)
        assert breaker.record_failure(0.0) is False
        assert breaker.record_failure(1.0) is False
        assert breaker.record_failure(2.0) is True
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(5.0)

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(9.9)
        assert breaker.allow(10.0)  # the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        assert breaker.record_failure(10.5) is True
        assert breaker.trips == 2
        assert not breaker.allow(15.0)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        assert breaker.record_failure(1.0) is False
        assert breaker.state == CircuitBreaker.CLOSED

    def test_client_fast_fails_when_open(self, engine):
        """Built on defaults: six consecutive retryable failures open it —
        the first call's five attempts and the second call's first."""
        api = FlakyApi(errors=[Throttling("x")] * 50)
        client = client_for(engine, api, latency=UNHURRIED)
        for trips in (0, 1):
            with pytest.raises(ConsistentCallError) as excinfo:
                drive(engine, client.call("operation"))
            assert not excinfo.value.breaker_open  # the open breaker lets a started call finish
            assert client.breaker_trips == trips
        assert api.calls == 2 * (1 + MAX_RETRIES)
        calls_before = api.calls
        with pytest.raises(ConsistentCallError) as excinfo:
            drive(engine, client.call("operation"))
        assert excinfo.value.breaker_open
        assert api.calls == calls_before  # no API call reached the plane
        assert client.breaker_trips == 1
        assert client.breaker_fast_fails == 1

    def test_half_open_probe_recovers_through_client(self):
        """Built on defaults: the probe is let through 45 s after the
        breaker opened (during the second call, which ends < 4 s later).
        Any answer to the probe closes the breaker: a result, or a
        non-retryable error such as ``ResourceNotFound`` — the endpoint
        answered, so it is up."""
        for probe_answer in ([], [ResourceNotFound("x")]):
            engine = Engine()
            api = FlakyApi(errors=[Throttling("x")] * 2 * (1 + MAX_RETRIES) + probe_answer)
            client = client_for(engine, api, latency=UNHURRIED)
            for _ in range(2):
                with pytest.raises(ConsistentCallError):
                    drive(engine, client.call("operation"))

            def sleep(seconds):
                yield engine.timeout(seconds)

            drive(engine, sleep(40.0))
            with pytest.raises(ConsistentCallError) as excinfo:
                drive(engine, client.call("operation"))
            assert excinfo.value.breaker_open  # still cooling down
            drive(engine, sleep(6.0))
            if probe_answer:
                with pytest.raises(ResourceNotFound):
                    drive(engine, client.call("operation"))  # the probe is answered
            else:
                assert drive(engine, client.call("operation")) == "ok"  # probe succeeds
            assert drive(engine, client.call("operation")) == "ok"  # breaker closed

    def test_breakers_are_per_method(self, engine):
        class TwoOps:
            def __init__(self):
                self.good_calls = 0

            def bad(self):
                raise Throttling("x")

            def good(self):
                self.good_calls += 1
                return "ok"

        api = TwoOps()
        client = client_for(engine, api, latency=UNHURRIED)
        for _ in range(3):
            with pytest.raises(ConsistentCallError):
                drive(engine, client.call("bad"))
        assert client.breaker_fast_fails == 1
        assert drive(engine, client.call("good")) == "ok"


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
