"""Assertion evaluation outcomes."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.logsys.record import LogEntry


@dataclasses.dataclass
class AssertionResult(LogEntry):
    """One evaluation of one assertion, and the entry storage holds for it.

    ``cause`` records the trigger path (``log`` / ``timer`` /
    ``timer-timeout`` / ``on-demand``) — diagnosis quality depends on it:
    the paper's first wrong-diagnosis class is purely timer-triggered
    evaluations that carry no instance id in their context.
    """

    source = "assertion-evaluation.log"
    type = "assertion"

    assertion_id: str
    passed: bool
    detail: str
    time: float
    duration: float = 0.0
    cause: str = "log"
    #: Parameters the assertion was instantiated with (N, asg name, ...).
    params: dict = dataclasses.field(default_factory=dict)
    #: Observations gathered while evaluating (actual counts, ids, ...).
    observed: dict = dataclasses.field(default_factory=dict)
    #: Process context of the trigger, if any.
    context: _t.Any = None
    #: The log line that triggered it (a ``log`` evaluation's only).
    record: _t.Any = None
    #: The watched trace whose repository judged it (a timer's too).
    trace_id: str | None = None
    #: True when the failure came from API timeout rather than a mismatch
    #: ("assertion evaluations are regarded as failed if API calls time
    #: out", §IV).
    timed_out: bool = False
    #: True when the failure is attributable to API-plane degradation
    #: (chaos-injected errors/blackholes) rather than resource state —
    #: such failures are inconclusive, never evidence.
    degraded: bool = False
    #: When the evaluation began (its trigger's time); ``time`` is its end.
    started_at: float | None = None

    @property
    def failed(self) -> bool:
        return not self.passed

    @property
    def message(self) -> str:
        status = "OK" if self.passed else "FAILED"
        return f"[assertion] [{self.assertion_id}] {status}: {self.detail}"

    @property
    def tags(self) -> list[str]:
        tags = [
            f"assert:{self.assertion_id}",
            "assertion-failed" if self.failed else "assertion-ok",
            f"cause:{self.cause}",
        ]
        if self.context is not None:
            tags.append(f"trace:{self.context.trace_id}")
            if self.context.step:
                tags.append(f"step:{self.context.step}")
        return tags

    @property
    def fields(self) -> dict[str, _t.Any]:
        return {"duration": round(self.duration, 3), "params": dict(self.params)}
