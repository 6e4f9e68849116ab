"""Annotators: attach process context and assertion bindings to log lines.

The paper's local log processor "annotates the corresponding log lines
with process context information" — process (model) id, process-instance
(trace) id, step id, and step outcome — and marks which assertions the
line should trigger.  Context is encoded as prefixed tags
(``process:…``, ``trace:…``, ``step:…``, ``position:…``, ``assert:…``)
plus extracted regex fields in ``@fields``.
"""

from __future__ import annotations

import typing as _t

from repro.logsys.patterns import Classification, PatternLibrary, classify_record
from repro.logsys.record import LogRecord


class ProcessAnnotator:
    """Tags records with process context derived from the pattern library."""

    def __init__(
        self,
        library: PatternLibrary,
        process_id: str,
        trace_id: str | _t.Callable[[LogRecord], str],
    ) -> None:
        self.library = library
        self.process_id = process_id
        self._trace_id = trace_id
        # Tag strings built once, not per record.
        self._process_tag = f"process:{process_id}"
        self._trace_tag = None if callable(trace_id) else f"trace:{trace_id}"

    def annotate(self, record: LogRecord) -> Classification:
        """Classify (or reuse the noise filter's memo) and tag one record."""
        classification = classify_record(self.library, record)
        record.add_tag(self._process_tag)
        record.add_tag(self._trace_tag or f"trace:{self._trace_id(record)}")
        pattern = classification.pattern
        if pattern is not None:
            record.add_tag(pattern.step_tag)
            record.add_tag(pattern.position_tag)
            if pattern.is_error:
                record.add_tag("known-error")
            record.fields.update(classification.fields)
        else:
            record.add_tag("step:unclassified")
        return classification


class AssertionAnnotator:
    """Tags records with the assertions their activity should trigger.

    ``bindings`` maps ``(activity, position)`` to assertion ids — the
    analyst-authored linkage between the process model and the assertion
    library (§III.A: "we also provide an assertion library, which analysts
    can use to link their assertions with the operation processes").
    """

    def __init__(self) -> None:
        self.bindings: dict[tuple[str, str], list[str]] = {}

    def bind(self, activity: str, position: str, assertion_ids: _t.Iterable[str]) -> None:
        key = (activity, position)
        existing = self.bindings.setdefault(key, [])
        for assertion_id in assertion_ids:
            if assertion_id not in existing:
                existing.append(assertion_id)

    def annotate(self, record: LogRecord) -> list[str]:
        """Tag the record; returns the assertion ids to evaluate."""
        activity = record.tag_value("step")
        position = record.tag_value("position")
        if activity is None or position is None:
            return []
        assertion_ids = self.bindings.get((activity, position), [])
        for assertion_id in assertion_ids:
            record.add_tag(f"assert:{assertion_id}")
        return list(assertion_ids)
