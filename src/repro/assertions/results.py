"""Assertion evaluation outcomes."""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass
class AssertionResult:
    """One evaluation of one assertion.

    ``cause`` records the trigger path (``log`` / ``timer`` /
    ``timer-timeout`` / ``on-demand``) — diagnosis quality depends on it:
    the paper's first wrong-diagnosis class is purely timer-triggered
    evaluations that carry no instance id in their context.
    """

    assertion_id: str
    passed: bool
    message: str
    time: float
    duration: float = 0.0
    cause: str = "log"
    #: Parameters the assertion was instantiated with (N, asg name, ...).
    params: dict = dataclasses.field(default_factory=dict)
    #: Observations gathered while evaluating (actual counts, ids, ...).
    observed: dict = dataclasses.field(default_factory=dict)
    #: Process context of the trigger, if any.
    context: _t.Any = None
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

    @property
    def failed(self) -> bool:
        return not self.passed

    def one_line(self) -> str:
        status = "OK" if self.passed else "FAILED"
        return f"[assertion] [{self.assertion_id}] {status}: {self.message}"
