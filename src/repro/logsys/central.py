"""Central log processor: failure-driven diagnosis trigger.

"A central log processor grabs the logs from the central log storage and
triggers the error diagnosis when it finds a failure or exception
indicated by the log line" (§III.B).  It watches the merged stream for
failure markers — assertion failures, conformance non-fit results,
known-error lines — and hands them to the diagnosis callable, deduplicating
so one failure line starts at most one diagnosis.
"""

from __future__ import annotations

import re
import typing as _t

from repro.logsys.record import LogRecord
from repro.logsys.storage import CentralLogStorage

#: Markers of trouble in merged logs, mirroring the failure / exception
#: keywords the paper's central processor greps for.
FAILURE_PATTERNS = tuple(
    re.compile(regex)
    for regex in (
        r"\[assertion\].*FAILED",
        r"\[conformance\].*(unfit|unknown|error)",
        r"(?i)\bexception\b",
        r"(?i)\bfailure\b",
    )
)


class CentralLogProcessor:
    """Watches central storage and triggers diagnosis on failure lines."""

    def __init__(
        self,
        storage: CentralLogStorage,
        diagnose: _t.Callable[[LogRecord], _t.Any],
    ) -> None:
        self.storage = storage
        self.diagnose = diagnose
        self.triggered: list[LogRecord] = []
        self._seen: set[int] = set()
        storage.subscribe(self._on_record)

    def _on_record(self, record: LogRecord) -> None:
        # Route before grepping: the two cheap tests drop nearly every record.
        # Diagnosis results are themselves logged centrally; never diagnose
        # a diagnosis (or we'd recurse forever).
        if record.type in ("diagnosis", "assertion", "conformance"):
            # Assertion/conformance failure records are the *primary*
            # trigger path and already routed by their services; the
            # central processor handles third-party failure lines.
            return
        if record.tag_value("conformance") is not None:
            # The line already went through a local processor and hence
            # through conformance checking, which routed any error itself.
            return
        if id(record) in self._seen:
            return
        if not self.is_failure(record):
            return
        self._seen.add(id(record))
        self.triggered.append(record)
        self.diagnose(record)

    def close(self) -> None:
        """Stop watching the storage (it holds this processor, which holds it)."""
        self.storage.unsubscribe(self._on_record)

    def is_failure(self, record: LogRecord) -> bool:
        return any(p.search(record.message) for p in FAILURE_PATTERNS)
