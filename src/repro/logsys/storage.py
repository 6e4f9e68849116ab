"""Central log storage: the merged, queryable repository.

All "important" lines from distributed local processors — plus the result
logs of conformance checking, assertion evaluation and error diagnosis —
land here (§III.B: "they are forwarded to the central log storage and
merged with the operation logs collected from distributed nodes").  The
store is what gives POD-Diagnosis *global visibility* across simultaneous
operations.

An entry is a :class:`LogRecord` (an operation line) or a conformance,
assertion or diagnosis verdict as its producer keeps it (``ConformanceResult``,
``AssertionResult``, ``DiagnosisLine``), each read as a :class:`LogEntry`
(``time``, ``type``, ``tags``, ``message``, ``timestamp``, ...).
:meth:`query` and :meth:`by_trace` use only ``type`` and ``has_tag``.
"""

from __future__ import annotations

from repro.logsys.record import LogEntry


class CentralLogStorage:
    """Append-only, time-ordered record store with tag/type queries."""

    def __init__(self) -> None:
        self.records: list[LogEntry] = []

    def append(self, record: LogEntry) -> None:
        self.records.append(record)

    # -- queries ------------------------------------------------------------

    def query(self, tag: str | None = None, type: str | None = None) -> list[LogEntry]:
        """Records with ``tag`` and of ``type``; an omitted criterion holds."""
        return [
            record
            for record in self.records
            if (tag is None or record.has_tag(tag)) and (type is None or record.type == type)
        ]

    def by_trace(self, trace_id: str) -> list[LogEntry]:
        """All records of one process instance — the event trace that
        process mining and conformance work from."""
        return self.query(tag=f"trace:{trace_id}")
