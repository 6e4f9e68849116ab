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

from repro.sim.clock import render

#: A tag split at its first ``:`` — ``(tag, prefix, value)``, ``prefix``
#: None for a bare tag — as :meth:`LogRecord.add_entries` takes it.
TagEntry = tuple[str, str | None, str]


def tag_entry(tag: str) -> TagEntry:
    """``tag`` split once: its prefix (None when it holds no ``:``) and
    the value after the first ``:``."""
    prefix, sep, value = tag.partition(":")
    return (tag, prefix if sep else None, value)


class LogEntry:
    """What a reader of central storage reads, given ``time``, ``source``,
    ``type``, ``message`` and ``tags``; no slots, so a slotted subclass
    stays dict-free."""

    __slots__ = ()
    stamp: str | None = None

    @property
    def timestamp(self) -> str:
        """The stored stamp, else ``time`` rendered (:func:`repro.sim.clock.render`)."""
        stamp = self.stamp
        return render(self.time) if stamp is None else stamp

    @property
    def fields(self) -> dict[str, _t.Any]:
        return {}

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def tag_value(self, prefix: str) -> str | None:
        """Value of the first ``prefix:value`` tag (``step:ready``), if any.
        A prefix holds no ``:``; the value may."""
        for _, head, value in map(tag_entry, self.tags):
            if head == prefix:
                return value
        return None

    def __str__(self) -> str:
        return f"[{self.timestamp}] [{','.join(self.tags)}] {self.message}"


@dataclasses.dataclass(slots=True, init=False)
class LogRecord(LogEntry):
    """One log event flowing through the pipeline.

    Slotted: a campaign allocates one record per log line per run, so
    dropping the per-instance dict trims the ingest path's footprint.
    The defaults live in ``__init__`` only.  Every record is an operation
    log line; the verdicts are their own entries (:class:`LogEntry`).
    """

    type = "operation"

    time: float
    source: str
    message: str
    tags: list[str]
    fields: dict[str, _t.Any]
    #: The stamp a parsed line was read with (``""`` if it had none), or
    #: ``None``: then :attr:`timestamp` renders one from ``time`` when it
    #: is read, which is how every record the simulator writes is stamped.
    stamp: str | None
    #: Classify-once memo: the Classification computed at ingest, reused
    #: by every later stage instead of re-running the pattern scan (see
    #: :func:`repro.logsys.patterns.classify_record`).  ``classified_by``
    #: records which library produced it so a *different* library never
    #: wrongly reuses it.  Both are bookkeeping, not payload: excluded
    #: from equality and from pickling.
    classification: _t.Any = dataclasses.field(repr=False, compare=False)
    classified_by: _t.Any = dataclasses.field(repr=False, compare=False)
    #: Prefix index built in ``_index_tags`` — declared as a field so
    #: ``slots=True`` reserves space for it.
    _tag_index: dict = dataclasses.field(repr=False, compare=False)

    def __init__(
        self,
        time: float,
        source: str,
        message: str,
        tags: list[str] | None = None,
        timestamp: str | None = None,
    ) -> None:
        self.time = time
        self.source = source
        self.message = message
        self.tags = [] if tags is None else tags
        self.fields = {}
        self.stamp = timestamp
        self.classification = self.classified_by = None
        self._index_tags()

    def _index_tags(self) -> None:
        # Tags are read on the hot path (`tag_value("trace")` per
        # conformance check), so they are indexed by prefix: first
        # ``prefix:value`` wins, insertion order preserved in ``tags``
        # itself for serialization.  Membership is a scan of ``tags``:
        # a record carries under ~10, so a parallel set costs more to
        # keep in step than it saves.
        index: dict[str, str] = {}
        for tag in self.tags:
            _, prefix, value = tag_entry(tag)
            if prefix is not None:
                index.setdefault(prefix, value)
        self._tag_index = index

    def add_entries(self, entries: _t.Iterable[TagEntry]) -> None:
        """Add pre-split tags (:func:`tag_entry`), in order.

        The one rule for adding a tag: a tag already present is skipped,
        the first ``prefix:value`` wins the index, a bare tag is not
        indexed.  The annotators split their tags once, per pattern or
        per binding, and add them here per record; a record written
        with all its tags known takes them in the constructor.
        """
        tags = self.tags
        index = self._tag_index
        for tag, prefix, value in entries:
            if tag not in tags:
                tags.append(tag)
                if prefix is not None:
                    index.setdefault(prefix, value)

    def tag_value(self, prefix: str) -> str | None:
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
            "tags": self.tags,
            "fields": self.fields,
            "stamp": self.stamp,
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.classification = None
        self.classified_by = None
        self._index_tags()


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
        """Convenience: build a record at the virtual clock's time."""
        return self.emit(LogRecord(time=clock.now(), source=source or self.name, message=message))


def _without(subscribers: tuple, callback) -> tuple:
    """``subscribers`` minus the first entry equal to ``callback``."""
    if callback not in subscribers:
        return subscribers
    at = subscribers.index(callback)
    return subscribers[:at] + subscribers[at + 1:]
