"""Trigger: last active stage of the local log processor.

"The trigger uses the matched log line and annotated process context to
trigger Conformance Checking and Assertion Evaluation" (§III.B.1).  The
trigger knows nothing about either service beyond their callable
interfaces, keeping the pipeline loosely coupled (in the paper they are
RESTful web services; here they are injected callables).
"""

from __future__ import annotations

import typing as _t

from repro.logsys.record import LogRecord


class Trigger:
    """Dispatches annotated records to conformance and assertion services."""

    def __init__(
        self,
        conformance: _t.Callable[[LogRecord], _t.Any] | None = None,
        assertions: _t.Callable[[LogRecord, list[str]], _t.Any] | None = None,
    ) -> None:
        self.conformance = conformance
        self.assertions = assertions

    def fire(self, record: LogRecord, assertion_ids: list[str]) -> None:
        if self.conformance is not None:
            self.conformance(record)
        if self.assertions is not None and assertion_ids:
            self.assertions(record, assertion_ids)
