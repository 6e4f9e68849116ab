"""Central log storage: the merged, queryable repository.

All "important" lines from distributed local processors — plus the result
logs of conformance checking, assertion evaluation and error diagnosis —
land here (§III.B: "they are forwarded to the central log storage and
merged with the operation logs collected from distributed nodes").  The
store is what gives POD-Diagnosis *global visibility* across simultaneous
operations, and what future process mining re-discovers models from.
"""

from __future__ import annotations

from repro.logsys.record import LogRecord


class CentralLogStorage:
    """Append-only, time-ordered record store with tag/field queries."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []

    def append(self, record: LogRecord) -> None:
        self.records.append(record)

    # -- queries ------------------------------------------------------------

    def query(
        self,
        tag: str | None = None,
        type: str | None = None,
        source: str | None = None,
        since: float | None = None,
        until: float | None = None,
        contains: str | None = None,
    ) -> list[LogRecord]:
        """Filter records; all criteria are conjunctive."""
        result = []
        for record in self.records:
            if tag is not None and not record.has_tag(tag):
                continue
            if type is not None and record.type != type:
                continue
            if source is not None and record.source != source:
                continue
            if since is not None and record.time < since:
                continue
            if until is not None and record.time > until:
                continue
            if contains is not None and contains not in record.message:
                continue
            result.append(record)
        return result

    def by_trace(self, trace_id: str) -> list[LogRecord]:
        """All records of one process instance — the event trace that
        process mining and conformance work from."""
        return self.query(tag=f"trace:{trace_id}")

    def traces(self) -> dict[str, list[LogRecord]]:
        """Group records by trace id (records without one are skipped)."""
        grouped: dict[str, list[LogRecord]] = {}
        for record in self.records:
            trace = record.tag_value("trace")
            if trace is not None:
                grouped.setdefault(trace, []).append(record)
        return grouped

    def __len__(self) -> int:
        return len(self.records)
