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
- ``call_until`` — retry a read until a predicate holds or the deadline
  passes, waiting out a resource that has not yet converged;
- per-call timeout, calibrated to the 95th percentile of the latency
  model.

On top of the paper's retry+timeout the client is hardened against a
degraded API plane (see :mod:`repro.cloud.chaos`).  There is one
configuration — every client has all of it, whether or not chaos is on:

- **the chaos draw**: each attempt waits its latency sample times the
  run's brownout multiplier, then asks the run's
  :class:`~repro.cloud.chaos.ChaosController` whether the plane fails
  it, then calls the plain :class:`CloudAPI`; a calm plane multiplies by
  1.0 and never draws;
- **full-jitter exponential backoff** decorrelates retries so an error
  storm is not answered with a synchronized retry storm;
- **deadline propagation**: ``call_until`` passes its own deadline into
  each inner ``call``, so inner retries never outlive the outer timeout;
- **blackhole absorption**: a chaos-blackholed call consumes the
  remaining deadline and surfaces as a timeout instead of hanging the
  simulation.

Failures caused by the chaos layer (rather than by real resource state)
are flagged ``degraded=True`` on the raised :class:`ConsistentCallError`
— the one place ``degraded`` is decided — letting diagnosis downgrade
them to *inconclusive* rather than treating API noise as evidence.

Both entry points are simulation generators: drive them with
``yield from`` inside an engine process, or through
:meth:`repro.assertions.evaluation.AssertionEvaluationService`.
"""

from __future__ import annotations

import random
import typing as _t

from repro.cloud.api import CloudAPI
from repro.cloud.chaos import BlackholedCall, ChaosController, get_profile
from repro.cloud.errors import CloudError, ResourceNotFound
from repro.sim.latency import LatencyModel, aws_api_latency

#: Retries of one call after its first attempt.
MAX_RETRIES = 4
#: Upper end of the first retry's full-jitter backoff window (seconds); the
#: window doubles per retry, so the fourth and last retry waits <= 1.6 s.
BASE_BACKOFF = 0.2


class ConsistentCallError(Exception):
    """A call exhausted its retries or its deadline.

    ``degraded`` is True when the failure is attributable to API-plane
    degradation (chaos-injected errors or blackholes) rather than to
    actual resource state — downstream consumers must treat degraded
    failures as *inconclusive*, never as evidence.
    """

    def __init__(
        self,
        message: str,
        timed_out: bool = False,
        last_error: Exception | None = None,
        degraded: bool = False,
    ) -> None:
        super().__init__(message)
        self.timed_out = timed_out
        self.last_error = last_error
        self.degraded = degraded


def is_degraded(exc: Exception) -> bool:
    """Was this failure caused by API-plane degradation (chaos)?

    Only the client decides: a chaos error it draws is retryable or a
    blackhole, so it ends as a ``ConsistentCallError`` carrying the
    ``degraded`` flag; any other error is an answer.
    """
    return isinstance(exc, ConsistentCallError) and exc.degraded


class ConsistentApiClient:
    """Retrying, timeout-guarded, degradation-hardened facade over a
    :class:`CloudAPI`."""

    def __init__(
        self,
        engine,
        api: CloudAPI,
        latency: LatencyModel | None = None,
        seed: int = 0,
        chaos: ChaosController | None = None,
    ) -> None:
        self.engine = engine
        self.api = api
        #: The healthy model: the brownout multiplies each sample in
        #: ``call``, never the calibration below, so a brownout can blow
        #: through the timeout instead of scaling it away.
        self.latency = latency or aws_api_latency()
        #: The run's API-plane chaos, drawn once per attempt.
        self.chaos = chaos or ChaosController(engine, get_profile(None))
        self._rng = random.Random(seed)  # jitter stream
        # The paper calibrates timeouts at the 95th percentile of measured
        # latencies: every attempt may take that long, plus 2 s of slack.
        self.call_timeout = self.latency.percentile(0.95) * (MAX_RETRIES + 1) + 2.0
        self.calls_made = 0
        self.retries_made = 0
        #: Deadline expiries only — retry exhaustion is counted separately
        #: in ``retry_exhaustions`` so each metric means what it says.
        self.timeouts = 0
        self.retry_exhaustions = 0
        self.blackholes = 0
        # Kept out of counters() (the outcome's api_health); a run's
        # metrics read them at export.  ``consistency_retries`` are the
        # call_until share of ``retries_made``.
        self.retryable_errors = 0
        self.consistency_retries = 0
        self.predicate_memo_hits = 0

    # -- health accounting -------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """API-health counters, exported into run outcomes and reports."""
        return {
            "calls": self.calls_made,
            "retries": self.retries_made,
            "timeouts": self.timeouts,
            "retry_exhaustions": self.retry_exhaustions,
            "blackholes": self.blackholes,
        }

    # -- generators -------------------------------------------------------------

    def call(self, method: str, *args, deadline: float | None = None, **kwargs) -> _t.Generator:
        """One logical call with exponential retry on retryable errors.

        Non-retryable CloudErrors (not-found, validation, limit) propagate
        immediately — they are *answers*, not infrastructure noise.
        ``deadline`` (absolute simulation time) caps the call in addition
        to ``call_timeout``; ``call_until`` uses it to propagate its own
        deadline into every inner call.  Returns the API result; raises
        :class:`ConsistentCallError` on deadline expiry or retry exhaustion.
        """
        call_deadline = self.engine.now + self.call_timeout
        if deadline is not None:
            call_deadline = min(call_deadline, deadline)
        attempt = 0
        last_error: Exception | None = None
        chaos_seen = False
        while True:
            remaining = call_deadline - self.engine.now
            if remaining <= 0:
                self.timeouts += 1
                raise ConsistentCallError(
                    f"{method} timed out after {self.call_timeout:.2f}s",
                    timed_out=True,
                    last_error=last_error,
                    degraded=chaos_seen,
                )
            brownout = self.chaos.profile.latency_multiplier
            yield self.engine.timeout(min(self.latency.sample() * brownout, remaining))
            self.calls_made += 1
            try:
                self.chaos.before_call(method)
                result = getattr(self.api, method)(*args, **kwargs)
            except BlackholedCall:
                # The plane will never answer: burn the rest of the
                # deadline (the hang), then surface a degraded timeout.
                self.blackholes += 1
                remaining = max(0.0, call_deadline - self.engine.now)
                if remaining > 0:
                    yield self.engine.timeout(remaining)
                self.timeouts += 1
                raise ConsistentCallError(
                    f"{method} blackholed; no response within {self.call_timeout:.2f}s",
                    timed_out=True,
                    degraded=True,
                )
            except CloudError as exc:
                if not exc.retryable:
                    raise
                chaos_seen = chaos_seen or bool(getattr(exc, "chaos", False))
                self.retryable_errors += 1
                # Kept without its traceback, which points back at this
                # frame: a frame holding its own exception is a cycle.
                last_error = exc.with_traceback(None)
                attempt += 1
                if attempt > MAX_RETRIES:
                    self.retry_exhaustions += 1
                    raise ConsistentCallError(
                        f"{method} still failing after {MAX_RETRIES} retries: {exc}",
                        timed_out=False,
                        last_error=exc,
                        degraded=chaos_seen,
                    )
                self.retries_made += 1
                # Full jitter (AWS architecture blog): uniform in
                # [0, backoff] decorrelates the retry herd.
                backoff = self._rng.uniform(0.0, BASE_BACKOFF * 2 ** (attempt - 1))
                remaining = max(0.0, call_deadline - self.engine.now)
                yield self.engine.timeout(min(backoff, remaining))
            else:
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

        Waits out convergence: a read whose resource has not yet reached
        the expected state fails the predicate and is retried with
        exponential backoff until the deadline.  Only
        :class:`ResourceNotFound` is retried among the non-retryable
        errors — the resource may be one another principal is creating
        or recreating; any other is an *answer* and propagates
        immediately.  The outer deadline is propagated into every inner
        ``call`` so no retry can outlive it.  Returns the first
        satisfying result; raises :class:`ConsistentCallError`
        (``timed_out=True``) if the expected state never arrives — which
        the evaluation service records as an assertion failure.
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
                # The resource may be one another principal is creating
                # or recreating; keep trying until the deadline, then
                # surface the error.  Other non-retryable errors
                # (validation, limits, ...) are real answers and
                # propagate from `call` directly.
                result = exc.with_traceback(None)  # as `last_error` in `call`
            if result is not None and result is last_result:
                # The data plane served the *same* frozen view again: the
                # resource is unchanged since the last read.  Views are
                # immutable and predicates pure, so the predicate verdict
                # cannot have changed — skip re-evaluating it.
                self.predicate_memo_hits += 1
            elif not isinstance(result, CloudError) and predicate(result):
                return result
            last_result = result
            attempt += 1
            backoff = BASE_BACKOFF * (2 ** min(attempt - 1, 6))
            if self.engine.now + backoff >= deadline:
                self.timeouts += 1
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
            self.consistency_retries += 1
            yield self.engine.timeout(backoff)
