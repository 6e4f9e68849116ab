"""Structured log records and the streams that carry them.

:class:`LogRecord` mirrors the Logstash event schema the paper's
implementation section shows (``@source``, ``@tags``, ``@fields``,
``@timestamp``, ``@message``, ``@type``): the original raw line is kept
verbatim in ``message`` while annotations accumulate in ``tags`` and
``fields`` — POD-Diagnosis is non-intrusive, it never rewrites the line.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass(slots=True)
class LogRecord:
    """One log event flowing through the pipeline.

    Slotted: a campaign allocates one record per log line per run, so
    dropping the per-instance dict trims the ingest path's footprint.
    """

    time: float
    source: str
    message: str
    type: str = "operation"
    tags: list[str] = dataclasses.field(default_factory=list)
    fields: dict[str, _t.Any] = dataclasses.field(default_factory=dict)
    #: Rendered wall-clock-style timestamp (set by the emitter).
    timestamp: str = ""
    #: Classify-once memo: the Classification computed at ingest, reused
    #: by every later stage instead of re-running the pattern scan (see
    #: :func:`repro.logsys.patterns.classify_record`).  ``classified_by``
    #: records which library produced it so a *different* library never
    #: wrongly reuses it.  Both are bookkeeping, not payload: excluded
    #: from equality and from the Logstash rendering.
    classification: _t.Any = dataclasses.field(default=None, repr=False, compare=False)
    classified_by: _t.Any = dataclasses.field(default=None, repr=False, compare=False)
    #: Prefix index built in ``__post_init__`` — declared as a field so
    #: ``slots=True`` reserves space for it.
    _tag_index: dict = dataclasses.field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        # Tags are read on the hot path (`tag_value("trace")` per
        # conformance check), so they are indexed by prefix: first
        # ``prefix:value`` wins, insertion order preserved in ``tags``
        # itself for serialization.  Membership is a scan of ``tags``:
        # a record carries under ~10, so a parallel set costs more to
        # keep in step than it saves.
        index: dict[str, str] = {}
        for tag in self.tags:
            prefix, sep, value = tag.partition(":")
            if sep:
                index.setdefault(prefix, value)
        self._tag_index = index

    def add_tag(self, tag: str) -> None:
        tags = self.tags
        if tag not in tags:
            tags.append(tag)
            prefix, sep, value = tag.partition(":")
            if sep:
                self._tag_index.setdefault(prefix, value)

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def tag_value(self, prefix: str) -> str | None:
        """Value of the first ``prefix:value`` tag, if any.

        Process context is encoded Logstash-style as prefixed tags, e.g.
        ``step:update_launch_configuration`` or ``conformance:fit``.
        """
        if ":" in prefix:
            # Compound prefixes split differently from the index keys;
            # fall back to the (rare) linear scan.
            needle = prefix + ":"
            for tag in self.tags:
                if tag.startswith(needle):
                    return tag[len(needle):]
            return None
        return self._tag_index.get(prefix)

    def __getstate__(self) -> dict:
        """Pickle the payload fields only, never the classify-once memo.

        ``classified_by`` holds the whole :class:`PatternLibrary` — a
        compiled-regex graph that would bloat every IPC payload when
        records ride through campaign worker chunks — and library
        *identity* is meaningless in another process anyway (the memo
        guard compares with ``is``, so a round-tripped memo could never
        be reused and a naively-shipped one would be silently dead
        weight).  The receiving side re-classifies on demand.
        """
        return {
            "time": self.time,
            "source": self.source,
            "message": self.message,
            "type": self.type,
            "tags": self.tags,
            "fields": self.fields,
            "timestamp": self.timestamp,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.classification = None
        self.classified_by = None
        self.__post_init__()

    def to_logstash(self) -> dict:
        """Render in the @-prefixed Logstash JSON shape from §IV."""
        return {
            "@source": self.source,
            "@tags": list(self.tags),
            "@fields": dict(self.fields),
            "@timestamp": self.timestamp,
            "@message": self.message,
            "@type": self.type,
        }

    def __str__(self) -> str:
        tags = ",".join(self.tags)
        return f"[{self.timestamp}] [{tags}] {self.message}"


class LogStream:
    """An append-only in-memory log file with live subscribers.

    Stands in for the operation node's log file that the Logstash agent
    tails: the emitter appends, subscribers (the local log processor) see
    each record as it arrives.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.records: list[LogRecord] = []
        #: Replaced, never mutated, on (un)subscribe: ``emit`` iterates it
        #: without a per-record copy, and a callback that unsubscribes
        #: during delivery does not disturb the loop in flight.
        self._subscribers: tuple[_t.Callable[[LogRecord], None], ...] = ()

    def subscribe(self, callback: _t.Callable[[LogRecord], None]) -> None:
        self._subscribers += (callback,)

    def unsubscribe(self, callback: _t.Callable[[LogRecord], None]) -> None:
        """Stop notifying ``callback`` (a no-op if it is not subscribed)."""
        self._subscribers = _without(self._subscribers, callback)

    def emit(self, record: LogRecord) -> LogRecord:
        """Append a record and notify subscribers in order."""
        self.records.append(record)
        for callback in self._subscribers:
            callback(record)
        return record

    def emit_line(self, clock, message: str, source: str | None = None) -> LogRecord:
        """Convenience: build a record stamped with the virtual clock."""
        record = LogRecord(
            time=clock.now(),
            source=source or self.name,
            message=message,
            timestamp=clock.render(),
        )
        return self.emit(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _without(subscribers: tuple, callback) -> tuple:
    """``subscribers`` minus the first entry equal to ``callback``."""
    if callback not in subscribers:
        return subscribers
    at = subscribers.index(callback)
    return subscribers[:at] + subscribers[at + 1:]
