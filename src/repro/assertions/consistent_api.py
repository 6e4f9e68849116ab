"""The consistent AWS API layer (§IV).

"To be resilient against AWS API inconsistency we also implemented a
consistent AWS API layer.  This includes an exponential retry mechanism:
if the supposed status of a specific cloud resource is different from our
expectation we retry the respective AWS API calls automatically.  We also
introduce an API timeout mechanism: assertion evaluations are regarded as
failed if API calls time out.  Timeout values are set based on
experiments, at the 95% percentile."

:class:`ConsistentApiClient` therefore offers:

- ``call`` — one API call with exponential retry on *retryable* errors
  (throttling, transient service unavailability);
- ``call_until`` — retry a (possibly stale) read until a predicate holds
  or the deadline passes, absorbing eventual consistency;
- per-call timeout, calibrated by default to the 95th percentile of the
  latency model.

On top of the paper's retry+timeout the client is hardened against a
degraded API plane (see :mod:`repro.cloud.chaos`).  There is one
configuration — every client has all of it, whether or not chaos is on:

- **full-jitter exponential backoff** decorrelates retries so an error
  storm is not answered with a synchronized retry storm;
- a **retry budget** (token bucket) caps the total retry volume so one
  flaky endpoint cannot starve a whole assertion batch;
- a per-method **circuit breaker** fails fast after ``breaker_threshold``
  consecutive retryable failures, with a half-open probe after
  ``breaker_cooldown`` seconds;
- **deadline propagation**: ``call_until`` passes its own deadline into
  each inner ``call``, so inner retries never outlive the outer timeout;
- **blackhole absorption**: a chaos-blackholed call consumes the
  remaining deadline and surfaces as a timeout instead of hanging the
  simulation.

Failures caused by the chaos layer (rather than by real resource state)
are flagged ``degraded=True`` on the raised :class:`ConsistentCallError`,
letting diagnosis downgrade them to *inconclusive* rather than treating
API noise as evidence.

Both entry points are simulation generators: drive them with
``yield from`` inside an engine process, or through
:meth:`repro.assertions.evaluation.AssertionEvaluationService`.
"""

from __future__ import annotations

import random
import typing as _t

from repro.cloud.api import CloudAPI
from repro.cloud.chaos import BlackholedCall
from repro.cloud.errors import CloudError, ResourceNotFound
from repro.sim.latency import LatencyModel, aws_api_latency


class ConsistentCallError(Exception):
    """A call exhausted its retries, its budget, or its deadline.

    ``degraded`` is True when the failure is attributable to API-plane
    degradation (chaos-injected errors, blackholes, or a breaker tripped
    by chaos) rather than to actual resource state — downstream consumers
    must treat degraded failures as *inconclusive*, never as evidence.
    """

    def __init__(
        self,
        message: str,
        timed_out: bool = False,
        last_error: Exception | None = None,
        degraded: bool = False,
        breaker_open: bool = False,
    ) -> None:
        super().__init__(message)
        self.timed_out = timed_out
        self.last_error = last_error
        self.degraded = degraded
        self.breaker_open = breaker_open


def is_degraded(exc: Exception) -> bool:
    """Was this failure caused by API-plane degradation (chaos)?

    ``ConsistentCallError`` carries an explicit ``degraded`` flag; a raw
    ``CloudError`` is chaos-injected iff it is tagged ``chaos=True``.
    """
    return bool(getattr(exc, "degraded", False) or getattr(exc, "chaos", False))


class RetryBudget:
    """Token bucket bounding a client's total retry volume.

    Each retry spends one token; tokens refill at ``refill_rate`` per
    simulated second up to ``capacity``.  When the bucket is empty the
    call fails fast instead of joining the retry storm — the standard
    'retry budget' pattern that keeps one flaky endpoint from consuming
    the entire assertion batch's time.
    """

    def __init__(self, capacity: float = 32.0, refill_rate: float = 0.75) -> None:
        if capacity <= 0 or refill_rate < 0:
            raise ValueError("capacity must be positive and refill_rate non-negative")
        self.capacity = capacity
        self.refill_rate = refill_rate
        self.tokens = capacity
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self._last_refill = now
        self.tokens = min(self.capacity, self.tokens + elapsed * self.refill_rate)

    def try_spend(self, now: float) -> bool:
        """Take one token; False means the budget is exhausted."""
        self._refill(now)
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True


class CircuitBreaker:
    """Per-method breaker: open after N consecutive retryable failures.

    States: *closed* (calls flow), *open* (fail fast until ``cooldown``
    elapses), *half-open* (exactly one probe call allowed; success closes
    the breaker, failure re-opens it).  ``chaos_tainted`` remembers
    whether any failure that contributed to opening was chaos-injected,
    so fast-fails can be labelled degraded only when chaos is implicated.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, threshold: int, cooldown: float) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.chaos_tainted = False
        self.trips = 0

    def allow(self, now: float) -> bool:
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN and now - self.opened_at >= self.cooldown:
            self.state = self.HALF_OPEN
            return True  # the single half-open probe
        return False

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.chaos_tainted = False

    def record_failure(self, now: float, chaos: bool = False) -> bool:
        """Record one retryable failure; True if the breaker newly opened."""
        self.chaos_tainted = self.chaos_tainted or chaos
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        self.consecutive_failures += 1
        if self.state == self.CLOSED and self.consecutive_failures >= self.threshold:
            self.state = self.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        return False


class ConsistentApiClient:
    """Retrying, timeout-guarded, degradation-hardened facade over a
    :class:`CloudAPI`."""

    def __init__(
        self,
        engine,
        api: CloudAPI,
        latency: LatencyModel | None = None,
        max_retries: int = 4,
        base_backoff: float = 0.2,
        call_timeout: float | None = None,
        seed: int = 0,
        max_backoff: float = 30.0,
        retry_budget: RetryBudget | None = None,
        breaker_threshold: int = 6,
        breaker_cooldown: float = 45.0,
        obs=None,
    ) -> None:
        # Live metric events (retries, breaker trips, blackholes) for the
        # observability layer; None when disabled so the hot call path
        # pays a single check.
        self._metrics = obs.metrics if obs else None
        self.engine = engine
        self.api = api
        self.latency = latency or aws_api_latency()
        self.max_retries = max_retries
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self._rng = random.Random(seed)  # jitter stream
        #: Omitted = this client's own default bucket (32 tokens @ 0.75/s).
        self.retry_budget = retry_budget or RetryBudget()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._breakers: dict[str, CircuitBreaker] = {}
        if call_timeout is None:
            # The paper calibrates timeouts at the 95th percentile of
            # measured latencies; fall back to 10x mean if the model has
            # no analytic percentile.
            percentile = getattr(self.latency, "percentile", None)
            if percentile is not None:
                call_timeout = percentile(0.95) * (max_retries + 1) + 2.0
            else:
                call_timeout = self.latency.mean() * 10 * (max_retries + 1)
        self.call_timeout = call_timeout
        self.calls_made = 0
        self.retries_made = 0
        #: Deadline expiries only — retry exhaustion is counted separately
        #: in ``retry_exhaustions`` so each metric means what it says.
        self.timeouts = 0
        self.retry_exhaustions = 0
        self.budget_denials = 0
        self.breaker_fast_fails = 0
        self.blackholes = 0

    # -- health accounting -------------------------------------------------------

    def _breaker(self, method: str) -> CircuitBreaker:
        if method not in self._breakers:
            self._breakers[method] = CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)
        return self._breakers[method]

    @property
    def breaker_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())

    def counters(self) -> dict[str, int]:
        """API-health counters, exported into run outcomes and reports."""
        return {
            "calls": self.calls_made,
            "retries": self.retries_made,
            "timeouts": self.timeouts,
            "retry_exhaustions": self.retry_exhaustions,
            "budget_denials": self.budget_denials,
            "breaker_trips": self.breaker_trips,
            "breaker_fast_fails": self.breaker_fast_fails,
            "blackholes": self.blackholes,
        }

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.inc(name)

    # -- generators -------------------------------------------------------------

    def call(self, method: str, *args, deadline: float | None = None, **kwargs) -> _t.Generator:
        """One logical call with exponential retry on retryable errors.

        Non-retryable CloudErrors (not-found, validation, limit) propagate
        immediately — they are *answers*, not infrastructure noise.
        ``deadline`` (absolute simulation time) caps the call in addition
        to ``call_timeout``; ``call_until`` uses it to propagate its own
        deadline into every inner call.  Returns the API result; raises
        :class:`ConsistentCallError` on deadline expiry, retry exhaustion,
        budget exhaustion or an open circuit breaker.
        """
        call_deadline = self.engine.now + self.call_timeout
        if deadline is not None:
            call_deadline = min(call_deadline, deadline)
        breaker = self._breaker(method)
        if not breaker.allow(self.engine.now):
            self.breaker_fast_fails += 1
            self._count("client.breaker_fast_fails")
            raise ConsistentCallError(
                f"{method} failing fast: circuit breaker open",
                timed_out=False,
                degraded=breaker.chaos_tainted,
                breaker_open=True,
            )
        attempt = 0
        last_error: Exception | None = None
        chaos_seen = False
        while True:
            remaining = call_deadline - self.engine.now
            if remaining <= 0:
                self.timeouts += 1
                self._count("client.timeouts")
                raise ConsistentCallError(
                    f"{method} timed out after {self.call_timeout:.2f}s",
                    timed_out=True,
                    last_error=last_error,
                    degraded=chaos_seen,
                )
            yield self.engine.timeout(min(self.latency.sample(), remaining))
            self.calls_made += 1
            self._count("client.calls")
            try:
                result = getattr(self.api, method)(*args, **kwargs)
            except BlackholedCall:
                # The plane will never answer: burn the rest of the
                # deadline (the hang), then surface a degraded timeout.
                self.blackholes += 1
                self._count("client.blackholes")
                if breaker.record_failure(self.engine.now, chaos=True):
                    self._count("client.breaker_trips")
                remaining = max(0.0, call_deadline - self.engine.now)
                if remaining > 0:
                    yield self.engine.timeout(remaining)
                self.timeouts += 1
                self._count("client.timeouts")
                raise ConsistentCallError(
                    f"{method} blackholed; no response within {self.call_timeout:.2f}s",
                    timed_out=True,
                    degraded=True,
                )
            except CloudError as exc:
                if not exc.retryable:
                    raise
                chaos = bool(getattr(exc, "chaos", False))
                chaos_seen = chaos_seen or chaos
                self._count("client.retryable_errors")
                if breaker.record_failure(self.engine.now, chaos=chaos):
                    self._count("client.breaker_trips")
                # Kept without its traceback, which points back at this
                # frame: a frame holding its own exception is a cycle.
                last_error = exc.with_traceback(None)
                attempt += 1
                if attempt > self.max_retries:
                    self.retry_exhaustions += 1
                    self._count("client.retry_exhaustions")
                    raise ConsistentCallError(
                        f"{method} still failing after {self.max_retries} retries: {exc}",
                        timed_out=False,
                        last_error=exc,
                        degraded=chaos_seen,
                    )
                if not self.retry_budget.try_spend(self.engine.now):
                    self.budget_denials += 1
                    self._count("client.budget_denials")
                    raise ConsistentCallError(
                        f"{method} retry budget exhausted: {exc}",
                        timed_out=False,
                        last_error=exc,
                        degraded=chaos_seen,
                    )
                self.retries_made += 1
                self._count("client.retries")
                # Full jitter (AWS architecture blog): uniform in
                # [0, backoff] decorrelates the retry herd.
                backoff = self._rng.uniform(
                    0.0, min(self.base_backoff * (2 ** (attempt - 1)), self.max_backoff)
                )
                remaining = max(0.0, call_deadline - self.engine.now)
                yield self.engine.timeout(min(backoff, remaining))
            else:
                breaker.record_success()
                return result

    def call_until(
        self,
        method: str,
        *args,
        predicate: _t.Callable[[_t.Any], bool],
        timeout: float | None = None,
        **kwargs,
    ) -> _t.Generator:
        """Retry a read until ``predicate(result)`` holds.

        Absorbs eventual consistency: stale reads fail the predicate and
        are retried with exponential backoff until the deadline.  Only
        :class:`ResourceNotFound` is treated as possible staleness — any
        other non-retryable error is an *answer* and propagates
        immediately.  The outer deadline is propagated into every inner
        ``call`` so no retry can outlive it.  Returns the first
        satisfying result; raises :class:`ConsistentCallError`
        (``timed_out=True``) if consistency never arrives — which the
        evaluation service records as an assertion failure.
        """
        deadline = self.engine.now + (timeout if timeout is not None else self.call_timeout)
        attempt = 0
        last_result: _t.Any = None
        while True:
            try:
                result = yield from self.call(method, *args, deadline=deadline, **kwargs)
            except ConsistentCallError:
                raise
            except ResourceNotFound as exc:
                # A not-found can itself be staleness; keep trying until
                # the deadline, then surface the error.  Other
                # non-retryable errors (validation, limits, ...) are real
                # answers and propagate from `call` directly.
                result = exc.with_traceback(None)  # as `last_error` in `call`
            if result is not None and result is last_result:
                # The data plane served the *same* frozen view again (a
                # repeated stale read).  Views are immutable and
                # predicates pure, so the predicate verdict cannot have
                # changed — skip re-evaluating it.
                self._count("client.predicate_memo_hits")
            elif not isinstance(result, CloudError) and predicate(result):
                return result
            last_result = result
            attempt += 1
            backoff = self.base_backoff * (2 ** min(attempt - 1, 6))
            if self.engine.now + backoff >= deadline:
                self.timeouts += 1
                self._count("client.timeouts")
                if isinstance(last_result, CloudError):
                    raise ConsistentCallError(
                        f"{method} never satisfied expectation: {last_result}",
                        timed_out=True,
                        last_error=last_result,
                    )
                raise ConsistentCallError(
                    f"{method} result never satisfied expectation", timed_out=True
                )
            self.retries_made += 1
            self._count("client.consistency_retries")
            yield self.engine.timeout(backoff)
