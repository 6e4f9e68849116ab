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
from repro.logsys.record import LogRecord, TagEntry, tag_entry

#: The one tag of a line no pattern matched, split once.
_UNCLASSIFIED = (tag_entry("step:unclassified"),)


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
        # The context tags, split once, not per record; a callable trace
        # id names each record's trace when it is annotated.
        self._process_entry = tag_entry(f"process:{process_id}")
        self._context = (
            None if callable(trace_id) else (self._process_entry, tag_entry(f"trace:{trace_id}"))
        )

    def annotate(self, record: LogRecord) -> Classification:
        """Classify (or reuse the noise filter's memo) and tag one record."""
        classification = classify_record(self.library, record)
        record.add_entries(
            self._context
            or (self._process_entry, tag_entry(f"trace:{self._trace_id(record)}"))
        )
        pattern = classification.pattern
        if pattern is not None:
            record.add_entries(pattern.entries)
            record.fields.update(classification.fields)
        else:
            record.add_entries(_UNCLASSIFIED)
        return classification


class AssertionAnnotator:
    """Tags records with the assertions their activity should trigger.

    ``bindings`` maps ``(activity, position)`` to assertion ids — the
    analyst-authored linkage between the process model and the assertion
    library (§III.A: "we also provide an assertion library, which analysts
    can use to link their assertions with the operation processes").
    :meth:`bind` is the one writer of both the ids and their split
    ``assert:<id>`` tags, so the two never disagree.
    """

    def __init__(self) -> None:
        self.bindings: dict[tuple[str, str], list[str]] = {}
        self._entries: dict[tuple[str, str], tuple[TagEntry, ...]] = {}

    def bind(self, activity: str, position: str, assertion_ids: _t.Iterable[str]) -> None:
        key = (activity, position)
        existing = self.bindings.setdefault(key, [])
        for assertion_id in assertion_ids:
            if assertion_id not in existing:
                existing.append(assertion_id)
        self._entries[key] = tuple(tag_entry(f"assert:{a}") for a in existing)

    def annotate(self, record: LogRecord) -> list[str]:
        """Tag the record; returns the assertion ids to evaluate."""
        # ``tag_value`` twice, read straight from the prefix index.
        index = record._tag_index
        key = (index.get("step"), index.get("position"))
        entries = self._entries.get(key)
        if entries is None:
            return []
        record.add_entries(entries)
        return list(self.bindings[key])
