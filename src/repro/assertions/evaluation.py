"""Assertion evaluation service (Fig. 4).

Evaluations arrive from three trigger mechanisms:

- **log** — the local log processor annotated a line with ``assert:`` tags;
- **timer** — a watchdog expired without its log line (cause
  ``timer-timeout``);
- **on-demand** — diagnosis tests walking a fault tree.

Log- and timer-triggered evaluations run as independent engine processes
(the paper's evaluation "threads", whose interleaving produces its second
false-positive class).  On-demand evaluations are driven synchronously
inside the diagnosis process via ``yield from``.

An assertion checks cloud state and answers; it does not catch API
failures.  On every trigger path the service turns one that escapes —
a timeout, exhausted retries, a non-retryable error — into a failed
result carrying ``timed_out`` / ``degraded`` (§IV: "assertion
evaluations are regarded as failed if API calls time out").

Each evaluation reads the configuration repository of one watched trace
(:meth:`AssertionEvaluationService.watch`): its line's, watchdog's or diagnosis's.

Every result is stored once: the :class:`AssertionResult` in ``results`` is
central storage's entry (type ``assertion``), rendered when read.  Failures
from log/timer triggers invoke ``on_failure`` — the entry point of diagnosis.
"""

from __future__ import annotations

import dataclasses
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
        storage,
        on_failure: _t.Callable[[AssertionResult], None] | None = None,
    ) -> None:
        self.env = env
        #: Per watched trace: ``env`` holding that trace's repository.
        self.envs: dict[str, AssertionEnvironment] = {}
        self.storage = storage
        self.on_failure = on_failure
        self.assertions: dict[str, Assertion] = {}
        self.results: list[AssertionResult] = []
        self.in_flight = 0
        #: High-water mark of ``in_flight``.
        self.in_flight_max = 0

    # -- registry -----------------------------------------------------------

    def register(self, assertion: Assertion) -> None:
        self.assertions[assertion.assertion_id] = assertion

    def register_all(self, assertions: _t.Iterable[Assertion] | dict[str, Assertion]) -> None:
        values = assertions.values() if isinstance(assertions, dict) else assertions
        for assertion in values:
            self.register(assertion)

    def watch(self, trace_id: str, repository: dict) -> None:
        """Judge ``trace_id``'s evaluations against ``repository``."""
        self.envs[trace_id] = dataclasses.replace(self.env, config=repository)

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
            self._spawn(assertion_id, params, "log", context, context.trace_id, record)

    def trigger_from_timer(self, trace_id: str, assertion_ids: list[str]) -> None:
        """Timer trigger: the watchdog of ``trace_id`` missed a deadline.

        The evaluation gets no process context: no triggering log line
        means no instance id — the paper's first wrong-diagnosis class.
        """
        params: dict = {}
        for assertion_id in assertion_ids:
            self._spawn(assertion_id, params, "timer-timeout", None, trace_id, None)

    def evaluate_on_demand(self, assertion_id: str, params: dict, trace_id: str) -> _t.Generator:
        """On-demand trigger (diagnosing ``trace_id``): drive with ``yield from``.

        Returns the AssertionResult; never invokes ``on_failure`` (the
        caller *is* the diagnosis).
        """
        result = yield from self._evaluate(self.get(assertion_id), params, trace_id)
        result.cause, result.trace_id = "on-demand", trace_id
        self.results.append(result)
        self.storage.append(result)
        return result

    # -- internals ----------------------------------------------------------------

    def _spawn(
        self, assertion_id: str, params: dict, cause: str, context, trace_id: str,
        record: LogRecord | None,
    ) -> None:
        assertion = self.get(assertion_id)
        self.in_flight += 1
        self.in_flight_max = max(self.in_flight_max, self.in_flight)
        self.env.engine.process(
            self._run(assertion, params, cause, context, trace_id, record),
            name=f"assert-{assertion_id}",
        )

    def _evaluate(self, assertion: Assertion, params: dict, trace_id: str) -> _t.Generator:
        """Evaluate against ``trace_id``'s repository, on any trigger path.
        The one place "could not read" becomes a result: a bad API plane
        fails (and flags) an evaluation, it never crashes the run or the
        diagnosis walk."""
        env = self.envs[trace_id]
        started = env.engine.now
        try:
            result = yield from assertion.evaluate(env, params)
        except (CloudError, ConsistentCallError) as exc:
            result = AssertionResult(
                assertion_id=assertion.assertion_id,
                passed=False,
                detail=f"evaluation aborted by API failure: {exc}",
                params=dict(params),
                timed_out=bool(getattr(exc, "timed_out", False)),
                degraded=is_degraded(exc),
            )
        result.started_at, result.time = started, env.engine.now
        return result

    def _run(
        self, assertion: Assertion, params: dict, cause: str, context, trace_id: str,
        record: LogRecord | None,
    ) -> _t.Generator:
        try:
            result = yield from self._evaluate(assertion, params, trace_id)
        finally:
            self.in_flight -= 1
        result.cause = cause
        result.context = context
        result.record = record
        result.trace_id = trace_id
        self.results.append(result)
        self.storage.append(result)
        if result.failed and self.on_failure is not None:
            self.on_failure(result)
