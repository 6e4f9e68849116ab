"""The local log processor: Fig. 3 assembled.

``noise filter → process annotator → assertion annotator → timer setter →
trigger → ship to central storage``.  One processor runs per operation
node; it is constructed from the pattern library + annotators + timer
rules for the operation process being watched.

There is one entry point, :meth:`LocalLogProcessor.process`: one record
in, one stage call per stage, shipped flag out.  Every caller — a tailed
:class:`~repro.logsys.record.LogStream`, a replayed log file — reaches
the stages through it, a record at a time (DESIGN.md §11 records why
there is no batch variant).
"""

from __future__ import annotations

from repro.logsys.annotator import AssertionAnnotator, ProcessAnnotator
from repro.logsys.filters import NoiseFilter
from repro.logsys.record import LogRecord, LogStream
from repro.logsys.storage import CentralLogStorage
from repro.logsys.timers import TimerSetter
from repro.logsys.trigger import Trigger


class LocalLogProcessor:
    """Per-node pipeline from raw operation log to central storage."""

    def __init__(
        self,
        noise_filter: NoiseFilter,
        process_annotator: ProcessAnnotator,
        assertion_annotator: AssertionAnnotator,
        trigger: Trigger,
        storage: CentralLogStorage,
        timer_setter: TimerSetter | None = None,
        obs=None,
    ) -> None:
        self.noise_filter = noise_filter
        self.process_annotator = process_annotator
        self.assertion_annotator = assertion_annotator
        self.timer_setter = timer_setter
        self.trigger = trigger
        self.storage = storage
        self.processed_count = 0
        self.shipped_count = 0
        self._tracer = obs.tracer if obs else None
        self._metrics = obs.metrics if obs else None

    def attach(self, stream: LogStream) -> None:
        """Tail a log stream, processing each record as it is emitted."""
        stream.subscribe(self.process)

    def process(self, record: LogRecord) -> bool:
        """Run one record through the pipeline; True if it was shipped."""
        metrics = self._metrics
        if not self.noise_filter.accepts(record):
            if metrics is not None:
                metrics.inc("pipeline.records_filtered")
            return False
        self.processed_count += 1
        if metrics is not None:
            metrics.inc("pipeline.records_ingested")
        if self._tracer is None:
            shipped = self._pipe(record)
        else:
            with self._tracer.span("record", "ingest", source=record.source) as span:
                shipped = self._pipe(record)
                span.set(step=record.tag_value("step"), shipped=shipped)
        if shipped and metrics is not None:
            metrics.inc("pipeline.records_shipped")
        return shipped

    def _pipe(self, record: LogRecord) -> bool:
        """annotate → timers → trigger → ship (the Fig. 3 stages)."""
        self.process_annotator.annotate(record)
        assertion_ids = self.assertion_annotator.annotate(record)
        if self.timer_setter is not None:
            self.timer_setter.observe(record)
        self.trigger.fire(record, assertion_ids)
        if self._important(record):
            self.storage.append(record)
            self.shipped_count += 1
            return True
        return False

    def _important(self, record: LogRecord) -> bool:
        position = record.tag_value("position")
        # The paper ships lines that "represent the start or end of a
        # process activity".
        if position in ("start", "end"):
            return True
        # Unclassified and known-error lines are always worth keeping:
        # they are exactly what diagnosis wants to see.
        return record.tag_value("step") == "unclassified" or record.has_tag("known-error")
