"""Assertion evaluation service (Fig. 4).

Evaluations arrive from three trigger mechanisms:

- **log** — the local log processor annotated a line with ``assert:`` tags;
- **timer** — one-off/periodic/watchdog timers (cause ``timer`` or
  ``timer-timeout`` when a watchdog expired without its log event);
- **on-demand** — diagnosis tests walking a fault tree.

Log- and timer-triggered evaluations run as independent engine processes
(the paper's evaluation "threads", whose interleaving produces its second
false-positive class).  On-demand evaluations are driven synchronously
inside the diagnosis process via ``yield from``.

An assertion checks cloud state and answers; it does not catch API
failures.  On every trigger path the service turns one that escapes —
a timeout, exhausted retries, an open breaker, a non-retryable error —
into a failed result carrying ``timed_out`` / ``degraded`` (§IV:
"assertion evaluations are regarded as failed if API calls time out").

Every result is logged (type ``assertion``) to central storage; failures
from log/timer triggers invoke the ``on_failure`` callback — the entry
point of error diagnosis.
"""

from __future__ import annotations

import typing as _t

from repro.assertions.base import Assertion, AssertionEnvironment
from repro.assertions.consistent_api import ConsistentCallError, is_degraded
from repro.assertions.results import AssertionResult
from repro.cloud.errors import CloudError
from repro.logsys.record import LogRecord
from repro.process.context import ProcessContext


class AssertionEvaluationService:
    """Registry + runner for assertions."""

    def __init__(
        self,
        env: AssertionEnvironment,
        storage=None,
        on_failure: _t.Callable[[AssertionResult], None] | None = None,
        obs=None,
    ) -> None:
        self.env = env
        self.storage = storage
        self.on_failure = on_failure
        self.assertions: dict[str, Assertion] = {}
        self.results: list[AssertionResult] = []
        self.in_flight = 0
        self._tracer = obs.tracer if obs else None
        self._metrics = obs.metrics if obs else None

    # -- registry -----------------------------------------------------------

    def register(self, assertion: Assertion) -> None:
        self.assertions[assertion.assertion_id] = assertion

    def register_all(self, assertions: _t.Iterable[Assertion] | dict[str, Assertion]) -> None:
        values = assertions.values() if isinstance(assertions, dict) else assertions
        for assertion in values:
            self.register(assertion)

    def get(self, assertion_id: str) -> Assertion:
        if assertion_id not in self.assertions:
            raise KeyError(f"unknown assertion {assertion_id!r}")
        return self.assertions[assertion_id]

    # -- trigger paths ---------------------------------------------------------

    def trigger_from_log(self, record: LogRecord, assertion_ids: list[str]) -> None:
        """Primary trigger: evaluate each bound assertion asynchronously.

        Only *spawns* simulation processes — no synchronous storage reads
        or writes happen here.
        """
        if not assertion_ids:
            # Trigger.fire guards this, but direct callers shouldn't pay
            # the context build for an empty set.
            return
        context = ProcessContext.from_record(record)
        params = dict(record.fields)
        for assertion_id in assertion_ids:
            self._spawn(assertion_id, params, cause="log", context=context)

    def trigger_from_timer(self, firing, assertion_ids: list[str]) -> None:
        """Timer trigger.  Watchdog expiries carry much weaker context:
        no triggering log line means no instance id — the paper's first
        wrong-diagnosis class."""
        cause = "timer-timeout" if firing.cause == "timeout" else "timer"
        context = None
        params: dict = {}
        if firing.record is not None:
            context = ProcessContext.from_record(firing.record)
            params = dict(firing.record.fields)
        for assertion_id in assertion_ids:
            self._spawn(assertion_id, params, cause=cause, context=context)

    def evaluate_on_demand(self, assertion_id: str, params: dict) -> _t.Generator:
        """On-demand trigger (diagnosis tests): drive with ``yield from``.

        Returns the AssertionResult; never invokes ``on_failure`` (the
        caller *is* the diagnosis).
        """
        result = yield from self._evaluate(self.get(assertion_id), params)
        result.cause = "on-demand"
        self.results.append(result)
        self._record_outcome(result)
        self._log_result(result)
        return result

    # -- internals ----------------------------------------------------------------

    def _spawn(self, assertion_id: str, params: dict, cause: str, context) -> None:
        assertion = self.get(assertion_id)
        self.in_flight += 1
        # The span opens at the trigger site so it parents under the log
        # record (or timer) that caused the evaluation; the evaluation
        # itself runs later, as its own engine process.
        span = None
        if self._tracer is not None:
            span = self._tracer.start_span(
                "evaluate", "assertion", assertion_id=assertion_id, cause=cause
            )
            self._metrics.gauge_max("assertions.in_flight_max", self.in_flight)
        self.env.engine.process(
            self._run(assertion, params, cause, context, span),
            name=f"assert-{assertion_id}",
        )

    def _evaluate(self, assertion: Assertion, params: dict) -> _t.Generator:
        """Evaluate, on any trigger path.  The one place "could not read"
        becomes a result: a bad API plane fails (and flags) an evaluation,
        it never crashes the run or the diagnosis walk."""
        started = self.env.engine.now
        try:
            return (yield from assertion.evaluate(self.env, params))
        except (CloudError, ConsistentCallError) as exc:
            now = self.env.engine.now
            return AssertionResult(
                assertion_id=assertion.assertion_id,
                passed=False,
                message=f"evaluation aborted by API failure: {exc}",
                time=now,
                duration=now - started,
                params=dict(params),
                timed_out=bool(getattr(exc, "timed_out", False)),
                degraded=is_degraded(exc),
            )

    def _run(
        self, assertion: Assertion, params: dict, cause: str, context, span=None
    ) -> _t.Generator:
        try:
            result = yield from self._evaluate(assertion, params)
        finally:
            self.in_flight -= 1
        result.cause = cause
        result.context = context
        self.results.append(result)
        self._record_outcome(result)
        self._log_result(result)
        if result.failed and self.on_failure is not None:
            if self._tracer is not None and span is not None:
                # Diagnosis triggered by this failure parents under the
                # evaluation's span, not wherever the engine happens to be.
                with self._tracer.activate(span):
                    self.on_failure(result)
            else:
                self.on_failure(result)
        if self._tracer is not None and span is not None:
            self._tracer.finish(
                span, result="failed" if result.failed else "passed", degraded=result.degraded
            )

    def _record_outcome(self, result: AssertionResult) -> None:
        if self._metrics is None:
            return
        verdict = "failed" if result.failed else "passed"
        self._metrics.inc(f"assertions.outcomes.{result.cause}.{verdict}")
        if result.degraded:
            self._metrics.inc("assertions.degraded")
        self._metrics.observe("assertion.duration", result.duration)

    def _log_result(self, result: AssertionResult) -> None:
        if self.storage is None:
            return
        clock = self.env.engine.clock
        record = LogRecord(
            time=self.env.engine.now,
            source="assertion-evaluation.log",
            message=result.one_line(),
            type="assertion",
            timestamp=clock.render(),
        )
        record.add_tag(f"assert:{result.assertion_id}")
        record.add_tag("assertion-failed" if result.failed else "assertion-ok")
        record.add_tag(f"cause:{result.cause}")
        if result.context is not None:
            record.add_tag(f"trace:{result.context.trace_id}")
            if result.context.step:
                record.add_tag(f"step:{result.context.step}")
        record.fields.update(
            {"duration": round(result.duration, 3), "params": dict(result.params)}
        )
        self.storage.append(record)

    # -- aggregate views --------------------------------------------------------

    def failures(self) -> list[AssertionResult]:
        return [r for r in self.results if r.failed]
