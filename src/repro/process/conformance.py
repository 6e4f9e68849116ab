"""Conformance checking service (§III.B.2).

For each incoming log line the service:

1. looks up (or creates) the process instance for the line's trace id;
2. classifies the line against the activity regexes;
3. tags it ``conformance:unclassified`` (treated as a detected error),
   ``conformance:error`` (known error line), ``conformance:fit`` or
   ``conformance:unfit``;
4. on any detected error, derives the *error context* — last valid state,
   last successfully executed activity, hypothesised skipped activities —
   and invokes the diagnosis callback.

Results are themselves logged (type ``conformance``) to central storage.
:meth:`ConformanceChecker.check` is the one entry point: a line at a
time, in arrival order.

The token game runs on :class:`~repro.process.compiled.CompiledReplayer`:
a flat integer transition table per model, one in-place marking per
trace, and no :class:`ProcessContext` allocation on the fit path (the
context of a fit line is built only if somebody reads it).
"""

from __future__ import annotations

import typing as _t

from repro.logsys.patterns import PatternLibrary, classify_record
from repro.logsys.record import LogRecord
from repro.process.compiled import CompiledReplayer
from repro.process.context import ProcessContext
from repro.process.model import ProcessModel

FIT = "fit"
UNFIT = "unfit"
UNKNOWN = "unclassified"
ERROR = "error"

#: Per-status strings prebuilt once — the check tail runs per log line.
_STATUS_TAGS = {s: f"conformance:{s}" for s in (FIT, UNFIT, UNKNOWN, ERROR)}
_CHECK_COUNTERS = {s: f"conformance.checks.{s}" for s in (FIT, UNFIT, UNKNOWN, ERROR)}


class ConformanceResult:
    """Outcome of checking one log line.

    ``context`` is built lazily: the fit path defers the
    :class:`ProcessContext` (tag lookups + a fields-dict copy)
    until somebody actually reads it — error paths always build eagerly
    because the diagnosis callback consumes the context immediately.
    """

    __slots__ = ("status", "activity", "trace_id", "_context", "_deferred")

    def __init__(
        self,
        status: str,
        activity: str | None,
        trace_id: str,
        context: ProcessContext | None = None,
        deferred: tuple[LogRecord, str | None] | None = None,
    ) -> None:
        self.status = status
        self.activity = activity
        self.trace_id = trace_id
        self._context = context
        self._deferred = deferred

    @property
    def context(self) -> ProcessContext:
        context = self._context
        if context is None:
            record, last_valid = self._deferred
            context = ProcessContext.from_record(record)
            context.last_valid_activity = last_valid
            context.conformance = self.status
            context.step = self.activity or context.step
            self._context = context
        return context

    @property
    def is_error(self) -> bool:
        return self.status in (UNFIT, UNKNOWN, ERROR)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConformanceResult):
            return NotImplemented
        return (
            self.status == other.status
            and self.activity == other.activity
            and self.trace_id == other.trace_id
            and self.context == other.context
        )

    def __repr__(self) -> str:
        return (
            f"ConformanceResult(status={self.status!r}, activity={self.activity!r},"
            f" trace_id={self.trace_id!r})"
        )


class ConformanceChecker:
    """Near-real-time token-replay conformance over annotated records."""

    #: Simulated service time per check; calibrated to the paper's
    #: "responded on average in about 10ms".  A calibration constant for
    #: the simulation's virtual clock; the local implementation's own cost
    #: per check sits orders of magnitude below it.
    SERVICE_TIME = 0.010

    def __init__(
        self,
        model: ProcessModel,
        library: PatternLibrary,
        clock=None,
        storage=None,
        on_error: _t.Callable[[ConformanceResult], None] | None = None,
        obs=None,
    ) -> None:
        self.model = model
        self.library = library
        self.clock = clock
        self.storage = storage
        self.on_error = on_error
        self.results: list[ConformanceResult] = []
        self.check_count = 0
        self._replayer = CompiledReplayer(model)
        #: trace key -> replay state (the replayer's own dict).
        self.instances = self._replayer.states
        self._tracer = obs.tracer if obs else None
        self._metrics = obs.metrics if obs else None

    @property
    def check(self) -> _t.Callable[[LogRecord], ConformanceResult]:
        """Check one line; tags the record and returns the result.

        Untraced, this *is* the worker (no wrapper frame per check; storing
        it on the instance would be a reference cycle).  Traced, the replay —
        and any diagnosis the error callback starts — runs inside a span.
        """
        return self._check if self._tracer is None else self._check_traced

    def _check_traced(self, record: LogRecord) -> ConformanceResult:
        with self._tracer.span("check", "conformance") as span:
            result = self._check(record)
            span.set(status=result.status, activity=result.activity, trace=result.trace_id)
        return result

    def _check(self, record: LogRecord) -> ConformanceResult:
        self.check_count += 1
        # One core call, tail inlined — extra dispatch layers are
        # measurable at the per-microsecond scale of a check.
        result = self._replay(record)
        status = result.status
        metrics = self._metrics
        if metrics is not None:
            metrics.inc(_CHECK_COUNTERS[status])
            if status == FIT or status == UNFIT:
                metrics.inc("conformance.tokens_replayed")
            metrics.inc("conformance.compiled.checks")
        # add_tag inlined for the known-shape status tag: first
        # conformance:* tag wins the index slot, duplicates are dropped —
        # identical semantics.
        tag = _STATUS_TAGS[status]
        tags = record.tags
        if tag not in tags:
            tags.append(tag)
            record._tag_index.setdefault("conformance", status)
        self.results.append(result)
        if self.storage is not None:
            self._log_result(record, result)
        if status != FIT and self.on_error is not None:
            self.on_error(result)
        return result

    def _replay(self, record: LogRecord) -> ConformanceResult:
        """Classify + replay one record.

        Returns the bare result — counters, tagging, storage and the
        error callback are the caller's tail (inlined in :meth:`_check`).
        """
        # tag_value("trace") inlined: "trace" has no ":" so the prefix
        # index answers directly.  Trace-less records key per source, so
        # unrelated log files never share (and corrupt) one token state.
        trace_id = record._tag_index.get("trace")
        if trace_id is None:
            trace_id = "untraced:" + record.source
        replayer = self._replayer
        states = replayer.states
        instance = states.get(trace_id)
        if instance is None:
            instance = replayer.instance_for(trace_id)
        library = self.library
        # Classify-once memo, checked inline; the helper also counts
        # memo hits, so route through it whenever metrics are live.
        if self._metrics is None and record.classified_by is library:
            classification = record.classification
        else:
            classification = classify_record(library, record, self._metrics)
        pattern = classification.pattern

        if pattern is None:
            return self._error_result(record, trace_id, UNKNOWN, None, instance)
        activity = pattern.activity
        if pattern.is_error:
            return self._error_result(record, trace_id, ERROR, activity, instance)
        tid = replayer.table.activity_ids.get(activity)
        if tid is None:
            return self._error_result(record, trace_id, UNKNOWN, None, instance)
        return self._replay_tid(record, trace_id, instance, tid, activity)

    def _replay_tid(
        self, record: LogRecord, trace_id: str, instance, tid: int, activity: str
    ) -> ConformanceResult:
        """Token-replay one pre-resolved transition id."""
        table = self._replayer.table
        last_fit = instance.last_fit
        marking = instance.marking
        inputs = table.inputs[tid]
        for place in inputs:
            if marking[place] <= 0:
                return self._unfit_replay(record, trace_id, instance, tid, activity)
        # FIT: the hot path — fire inlined (the enabled scan above already
        # proved every input has a token), context deferred, no dict copies.
        for place in inputs:
            marking[place] -= 1
        for place in table.outputs[tid]:
            marking[place] += 1
        instance.consumed += table.input_counts[tid]
        instance.produced += table.output_counts[tid]
        instance.last_fit = activity
        return ConformanceResult(FIT, activity, trace_id, deferred=(record, last_fit))

    def _unfit_replay(
        self, record: LogRecord, trace_id: str, instance, tid: int, activity: str
    ) -> ConformanceResult:
        """UNFIT: error context derived BEFORE the forced replay."""
        context = ProcessContext.from_record(record)
        context.last_valid_activity = instance.last_fit
        context.skipped_activities = instance.hypothesize_skipped(activity)
        instance.replay_id(tid)
        context.conformance = UNFIT
        context.step = activity
        return ConformanceResult(UNFIT, activity, trace_id, context=context)

    def _error_result(
        self, record: LogRecord, trace_id: str, status: str,
        activity: str | None, instance,
    ) -> ConformanceResult:
        """UNKNOWN / ERROR: no replay; eager context for the callback."""
        context = ProcessContext.from_record(record)
        context.last_valid_activity = instance.last_fit
        context.conformance = status
        context.step = activity or context.step
        return ConformanceResult(status, activity, trace_id, context=context)

    def _log_result(self, record: LogRecord, result: ConformanceResult) -> None:
        time = self.clock.now() if self.clock is not None else record.time
        timestamp = self.clock.render() if self.clock is not None else record.timestamp
        message = (
            f"[conformance] [{result.trace_id}] line classified {result.status}"
            f" (activity={result.activity or 'n/a'})"
        )
        tags = ["trace:" + result.trace_id, _STATUS_TAGS[result.status]]
        if result.activity:
            tags.append("step:" + result.activity)
        self.storage.append(
            LogRecord(
                time=time,
                source="conformance-checking.log",
                message=message,
                type="conformance",
                tags=tags,
                timestamp=timestamp,
            )
        )

    # -- aggregate views -------------------------------------------------------

    def fitness_of(self, trace_id: str) -> float:
        return self._replayer.instance_for(trace_id).fitness()
