"""A run's trace, read at export from the records the run keeps.

The POD pipeline (ingest → conformance → assertion evaluation →
diagnosis → recovery) is otherwise a black box: when a campaign's
precision dips or its diagnosis times drift, nothing says *where* inside
a run the time or the verdicts went.  :func:`run_trace` answers with
nested spans on the virtual clock, each one read off a record the run
keeps whether or not it is traced:

- one ``ingest`` span per log record the local log processor let in, and
  under it one ``conformance`` span: both are its
  :class:`~repro.process.conformance.ConformanceResult` (every ingested
  record is checked exactly once);
- one ``assertion`` span per log- or timer-triggered
  :class:`~repro.assertions.results.AssertionResult`, under the record
  that triggered it (a timer's is a root);
- one ``diagnosis`` walk span per finished
  :class:`~repro.diagnosis.report.DiagnosisReport`, under the check or
  evaluation that triggered it, and one test span per
  :class:`~repro.diagnosis.report.TestExecution` in it;
- one ``recovery`` span per plan execution
  (:class:`~repro.recovery.engine.RecoveryResult`), and under it one per
  action that ran (:class:`~repro.recovery.engine.ActionResult`).

So no component holds a tracer or tests whether the run is traced:
tracing changes no code that runs, only whether the export reads the run.
Work still in flight at export has no record and so no span, except a plan
execution, whose result exists from its start (``end`` is ``None`` until it
finishes).

A span is a slotted :class:`Span`; ``RunOutcome.trace`` holds them and
JSON is made only at the format boundary
(:func:`repro.obs.export.trace_payload`, :meth:`Span.to_dict`).  Span
times are virtual and ids are handed out in start order (a parent before
its children), so a trace is bit-for-bit identical serially and in
parallel.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.logsys.pipeline import is_shipped
from repro.recovery.engine import FAILED


@dataclasses.dataclass(slots=True)
class Span:
    """One timed unit of pipeline work, keyed to virtual time.  Its seven
    fields are exactly what :meth:`to_dict` writes."""

    span_id: int
    parent_id: int | None
    name: str
    stage: str  # "ingest" | "conformance" | "assertion" | "diagnosis" | ...
    start: float
    end: float | None = None
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }


def run_trace(testbed) -> list[Span]:
    """The spans of the run on ``testbed``, read from its records, in start
    order; ids count from 1 in that order."""
    pod = testbed.pod
    #: (span, its parent span or None), in an order where a parent comes
    #: before any child that starts with it.
    found: list[tuple[Span, Span | None]] = []

    def span(name: str, stage: str, start: float, end: float | None, parent: Span | None,
             **attrs: _t.Any) -> Span:
        made = Span(0, None, name, stage, start, end, attrs)
        found.append((made, parent))
        return made

    ingested: dict[int, Span] = {}
    #: id(result) -> its span, for the entry that triggered a walk.
    triggers: dict[int, Span] = {}
    for result in pod.conformance.results:
        record, at = result.record, result.time
        ingest = ingested[id(record)] = span(
            "record", "ingest", at, at, None,
            source=record.source, step=record.tag_value("step"), shipped=is_shipped(record),
        )
        triggers[id(result)] = span(
            "check", "conformance", at, at, ingest,
            status=result.status, activity=result.activity, trace=result.trace_id,
        )
    for result in pod.assertions.results:
        if result.cause != "on-demand":
            triggers[id(result)] = span(
                "evaluate", "assertion", result.started_at, result.time,
                ingested.get(id(result.record)),
                assertion_id=result.assertion_id, cause=result.cause,
                result="failed" if result.failed else "passed", degraded=result.degraded,
            )
    for report in pod.diagnosis.completed:
        walk = span(
            "walk", "diagnosis", report.started_at, report.finished_at,
            triggers.get(id(report.entry)),
            trigger=report.trigger, trigger_detail=report.trigger_detail,
            tree_ids=list(report.tree_ids), root_causes=len(report.root_causes),
            no_root_cause=report.no_root_cause, tests=len(report.tests),
        )
        for test in report.tests:
            base = {"node": test.node_id, "test": test.test_name}
            if test.cached:
                attrs = {**base, "cached": True, "verdict": test.verdict}
            else:
                attrs = {**base, "kind": test.test_kind, "verdict": test.verdict,
                         "degraded": test.degraded}
            span("test", "diagnosis", test.started_at, test.finished_at, walk, **attrs)
    for recovery in testbed.recoveries:
        for result in recovery.results:
            ended = {} if result.finished_at is None else {"status": result.status}
            execute = span(
                "execute", "recovery", result.started_at, result.finished_at, None,
                actions=len(result.actions), **ended,
            )
            for action in result.actions:
                if action.started_at is not None:
                    failed = {"error": action.error} if action.status == FAILED else {}
                    span(action.action, "recovery", action.started_at, action.finished_at,
                         execute, target=action.target, status=action.status, **failed)

    found.sort(key=lambda pair: pair[0].start)
    for span_id, (made, _parent) in enumerate(found, 1):
        made.span_id = span_id
    for made, parent in found:
        if parent is not None:
            made.parent_id = parent.span_id
    return [made for made, _parent in found]
