"""Tests for the local log processor pipeline (Fig. 3) and its stages."""

import types

from repro.assertions.results import AssertionResult
from repro.evaluation.faults import apply_fault
from repro.logsys.annotator import AssertionAnnotator, ProcessAnnotator
from repro.logsys.filters import NoiseFilter
from repro.logsys.patterns import END, LogPattern, PatternLibrary
from repro.logsys.pipeline import LocalLogProcessor
from repro.logsys.record import LogRecord, LogStream
from repro.logsys.storage import CentralLogStorage
from repro.logsys.trigger import Trigger
from repro.obs import run_trace
from repro.process.conformance import ConformanceChecker
from repro.process.context import ProcessContext
from repro.process.model import ProcessModel
from repro.sim.clock import SimClock


def library():
    return PatternLibrary(
        [
            LogPattern("begin", r"operation started", position="start"),
            LogPattern("work", r"did work on (?P<instanceid>i-\w+)", position=END),
            LogPattern("oops", r"known error", position=END, is_error=True),
        ]
    )


def record(message, time=0.0):
    return LogRecord(time=time, source="op.log", message=message)


class TestNoiseFilter:
    def test_matched_lines_pass(self):
        noise = NoiseFilter(library())
        assert noise.accepts(record("operation started"))

    def test_unmatched_lines_dropped_by_default(self):
        noise = NoiseFilter(library())
        assert not noise.accepts(record("random chatter"))

    def test_drop_regexes_always_win(self):
        noise = NoiseFilter(library(), passthrough_unmatched=True)
        assert not noise.accepts(record("DEBUG operation started"))

    def test_passthrough_unmatched(self):
        noise = NoiseFilter(library(), passthrough_unmatched=True)
        assert noise.accepts(record("weird unknown line"))


class TestProcessAnnotator:
    def test_annotates_context_tags(self):
        annotator = ProcessAnnotator(library(), "proc-1", "trace-9")
        rec = record("did work on i-abc")
        annotator.annotate(rec)
        assert rec.tag_value("process") == "proc-1"
        assert rec.tag_value("trace") == "trace-9"
        assert rec.tag_value("step") == "work"
        assert rec.tag_value("position") == "end"
        assert rec.fields["instanceid"] == "i-abc"

    def test_unmatched_tagged_unclassified(self):
        annotator = ProcessAnnotator(library(), "proc-1", "trace-9")
        rec = record("mystery")
        annotator.annotate(rec)
        assert rec.tag_value("step") == "unclassified"

    def test_error_lines_tagged_known_error(self):
        annotator = ProcessAnnotator(library(), "p", "t")
        rec = record("known error occurred")
        annotator.annotate(rec)
        assert rec.has_tag("known-error")


class TestAssertionAnnotator:
    def test_bound_assertions_tagged(self):
        annotator = AssertionAnnotator()
        annotator.bind("work", "end", ["check-1", "check-2"])
        rec = LogRecord(time=0.0, source="op.log", message="x", tags=["step:work", "position:end"])
        ids = annotator.annotate(rec)
        assert ids == ["check-1", "check-2"]
        assert rec.has_tag("assert:check-1")

    def test_bind_deduplicates(self):
        annotator = AssertionAnnotator()
        annotator.bind("work", "end", ["c"])
        annotator.bind("work", "end", ["c"])
        assert annotator.bindings[("work", "end")] == ["c"]

    def test_no_context_returns_empty(self):
        annotator = AssertionAnnotator()
        assert annotator.annotate(record("x")) == []


class TestLocalLogProcessor:
    def _processor(self, storage=None, conformance=None, assertions=None):
        storage = storage if storage is not None else CentralLogStorage()
        aa = AssertionAnnotator()
        aa.bind("work", "end", ["check-1"])
        return (
            LocalLogProcessor(
                noise_filter=NoiseFilter(library()),
                process_annotator=ProcessAnnotator(library(), "p", "t"),
                assertion_annotator=aa,
                trigger=Trigger(
                    conformance=conformance or (lambda rec: None),
                    assertions=assertions or (lambda rec, ids: None),
                ),
                storage=storage,
            ),
            storage,
        )

    def test_noise_never_reaches_storage(self):
        processor, storage = self._processor()
        assert not processor.process(record("irrelevant"))
        assert len(storage.records) == 0

    def test_important_lines_shipped(self):
        processor, storage = self._processor()
        assert processor.process(record("did work on i-1"))
        assert len(storage.records) == 1
        assert storage.records[0].tag_value("step") == "work"

    def test_known_error_lines_always_shipped(self):
        processor, storage = self._processor()
        assert processor.process(record("known error here"))
        assert storage.records[0].has_tag("known-error")

    def test_triggers_invoked_with_assertion_ids(self):
        calls = []
        processor, _ = self._processor(
            conformance=lambda r: calls.append(("conf", r.tag_value("step"))),
            assertions=lambda r, ids: calls.append(("assert", ids)),
        )
        processor.process(record("did work on i-2"))
        assert ("conf", "work") in calls
        assert ("assert", ["check-1"]) in calls

    def test_attach_tails_stream(self):
        processor, storage = self._processor()
        stream = LogStream("op.log")
        processor.attach(stream)
        stream.emit_line(SimClock(), "did work on i-3")
        assert len(storage.records) == 1

    def test_counters(self):
        processor, _ = self._processor()
        processor.process(record("did work on i-1"))
        processor.process(record("noise"))
        assert processor.shipped_count == 1

    def test_metrics_and_spans_recorded_when_observed(self):
        model = ProcessModel("linear")
        model.add_sequence("begin", "work")
        model.mark_start("begin")
        model.mark_end("work")
        checker = ConformanceChecker(model, library(), storage=CentralLogStorage())
        processor, _ = self._processor(conformance=checker.check)
        processor.process(record("did work on i-1"))
        processor.process(record("noise"))
        # Counted always (filtered, ingested, shipped): no run is "unobserved".
        assert (processor.filtered_count, processor.ingested_count, processor.shipped_count) == (
            1, 1, 1
        )
        # One ingest span per accepted record, read from its check at export;
        # none for the filtered one.
        empty = types.SimpleNamespace(results=[], completed=[])
        run = types.SimpleNamespace(
            pod=types.SimpleNamespace(conformance=checker, assertions=empty, diagnosis=empty),
            recoveries=[],
        )
        ingest, check = run_trace(run)
        assert (ingest.stage, ingest.parent_id, check.parent_id) == ("ingest", None, ingest.span_id)
        assert ingest.attrs == {"source": "op.log", "step": "work", "shipped": True}


class TestProcessGolden:
    """What one ``process`` call does, pinned directly: effect order,
    preset-tag handling, late bindings, and the rolling-upgrade corpus."""

    def _stack(self):
        """Full stack over one shared storage; every side effect lands in
        ``events`` in the order it happens."""
        events: list = []
        current: list = []

        class RecordingTimers:
            def observe(self, rec):
                current[:] = [rec]
                events.append(("timer", rec.tag_value("step")))

        lib = library()
        model = ProcessModel("linear")
        model.add_sequence("begin", "work")
        model.mark_start("begin")
        model.mark_end("work")
        class RecordingStorage(CentralLogStorage):
            def append(self, stored):
                super().append(stored)
                events.append(("stored", stored.type, current[0].tag_value("conformance")))

        storage = RecordingStorage()
        checker = ConformanceChecker(
            model,
            lib,
            storage=storage,
            on_error=lambda result: events.append(("on_error", result.status, len(storage.records))),
        )
        annotator = AssertionAnnotator()
        annotator.bind("work", "end", ["check-1"])
        processor = LocalLogProcessor(
            noise_filter=NoiseFilter(lib),
            process_annotator=ProcessAnnotator(lib, "p", "t"),
            assertion_annotator=annotator,
            timer_setter=RecordingTimers(),
            trigger=Trigger(
                conformance=checker.check,
                assertions=lambda rec, ids: events.append(("assert", ids, len(storage.records))),
            ),
            storage=storage,
        )
        return processor, storage, events

    def test_effect_order_within_one_record(self):
        # "work" before "begin" is unfit, and "work" is bound to check-1,
        # so one record exercises every effect.
        processor, storage, events = self._stack()
        assert processor.process(record("did work on i-1"))
        assert events == [
            ("timer", "work"),
            # the status tag is on the record before its result log lands
            ("stored", "conformance", "unfit"),
            ("on_error", "unfit", 1),
            ("assert", ["check-1"], 1),
            ("stored", "operation", "unfit"),
        ]
        assert [r.type for r in storage.records] == ["conformance", "operation"]

    def test_fit_record_skips_error_callback_only(self):
        processor, storage, events = self._stack()
        assert processor.process(record("operation started"))
        assert events == [
            ("timer", "begin"),
            ("stored", "conformance", "fit"),
            ("stored", "operation", "fit"),
        ]

    def test_preset_trace_keeps_index_static_trace_appended(self):
        processor, _, _ = self._stack()
        rec = LogRecord(time=0.0, source="op.log", message="operation started", tags=["trace:x"])
        processor.process(rec)
        assert rec.tag_value("trace") == "x"
        assert rec.tags == [
            "trace:x", "process:p", "trace:t", "step:begin", "position:start",
            "conformance:fit",
        ]

    def test_preset_equal_tag_not_duplicated(self):
        processor, _, _ = self._stack()
        rec = LogRecord(
            time=0.0, source="op.log", message="operation started",
            tags=["trace:t", "step:begin"],
        )
        processor.process(rec)
        assert rec.tags == [
            "trace:t", "step:begin", "process:p", "position:start", "conformance:fit",
        ]

    def test_bind_after_construction_applies_to_next_record(self):
        processor, _, events = self._stack()
        processor.process(record("operation started"))
        assert not [e for e in events if e[0] == "assert"]
        processor.assertion_annotator.bind("begin", "start", ["check-late"])
        rec = record("operation started")
        processor.process(rec)
        assert [e for e in events if e[0] == "assert"] == [("assert", ["check-late"], 3)]
        assert rec.has_tag("assert:check-late")

    #: One upgrade of a two-instance group as the operation node logs it,
    #: with a second trace finishing out of order and lines no pattern
    #: knows; then a progress line (checked, not shipped) and a dropped one.
    CORPUS = [
        ("Pushing ami-001 into group asg-x: rolling upgrade task started", "u-1"),
        ("Updated launch configuration of group asg-x to lc-2 with image ami-001", "u-1"),
        ("Sorted 2 instances of group asg-x for replacement", "u-1"),
        ("Deregistered instance i-001 from load balancer elb-x", "u-1"),
        ("Terminating instance i-001 in group asg-x", "u-1"),
        ("Waiting for group asg-x to start a new instance", "u-1"),
        ("Instance i-002 is ready for use in group asg-x. 1 of 2 done", "u-1"),
        ("Rolling upgrade task completed for group asg-x", "u-2"),  # unfit trace
        ("surprise line nobody modelled", "u-1"),
        ("Status info: 1 of 2 instance relaunches done", "u-1"),
        ("DEBUG heartbeat", "u-1"),
    ]

    def test_rolling_upgrade_corpus(self):
        from repro.operations.rolling_upgrade import (
            build_pattern_library,
            reference_process_model,
        )

        errors: list = []
        lib = build_pattern_library()
        storage = CentralLogStorage()
        checker = ConformanceChecker(
            reference_process_model(),
            lib,
            storage=storage,
            on_error=lambda r: errors.append((r.status, r.trace_id)),
        )
        annotator = AssertionAnnotator()
        annotator.bind("sort_instances", "end", ["check-count"])
        processor = LocalLogProcessor(
            noise_filter=NoiseFilter(lib, passthrough_unmatched=True),
            process_annotator=ProcessAnnotator(lib, "rolling-upgrade", "run-1"),
            assertion_annotator=annotator,
            trigger=Trigger(conformance=checker.check, assertions=lambda rec, ids: None),
            storage=storage,
        )
        records = [
            LogRecord(time=float(i), source="op.log", message=message, tags=[f"trace:{trace}"])
            for i, (message, trace) in enumerate(self.CORPUS)
        ]

        flags = [processor.process(rec) for rec in records]

        assert flags == [True] * 9 + [False, False]
        ctx = ["process:rolling-upgrade", "trace:run-1"]
        assert [rec.tags for rec in records] == [
            ["trace:u-1", *ctx, "step:start_rolling_upgrade", "position:end", "conformance:fit"],
            ["trace:u-1", *ctx, "step:update_launch_configuration", "position:end",
             "conformance:fit"],
            ["trace:u-1", *ctx, "step:sort_instances", "position:end", "assert:check-count",
             "conformance:fit"],
            ["trace:u-1", *ctx, "step:remove_deregister_old_instance", "position:end",
             "conformance:fit"],
            ["trace:u-1", *ctx, "step:terminate_old_instance", "position:end",
             "conformance:fit"],
            ["trace:u-1", *ctx, "step:wait_for_asg_to_start_new_instance", "position:start",
             "conformance:fit"],
            ["trace:u-1", *ctx, "step:unclassified", "conformance:unclassified"],
            ["trace:u-2", *ctx, "step:rolling_upgrade_completed", "position:end",
             "conformance:unfit"],
            ["trace:u-1", *ctx, "step:unclassified", "conformance:unclassified"],
            ["trace:u-1", *ctx, "step:status_info", "position:progress", "conformance:fit"],
            ["trace:u-1"],
        ]
        assert records[1].fields == {"amiid": "ami-001", "asgid": "asg-x", "lcname": "lc-2"}
        assert errors == [("unclassified", "u-1"), ("unfit", "u-2"), ("unclassified", "u-1")]
        # Every checked line's result log lands just before the line
        # itself; the progress line leaves only its result log.
        shipped = [message for message, _ in self.CORPUS[:9]]
        assert [r.type for r in storage.records] == ["conformance", "operation"] * 9 + [
            "conformance"
        ]
        assert [r.message for r in storage.records if r.type == "operation"] == shipped
        assert [r.tag_value("conformance") for r in storage.records if r.type == "conformance"] == [
            "fit", "fit", "fit", "fit", "fit", "fit", "unclassified", "unfit", "unclassified",
            "fit",
        ]


class TestAnnotationOnARealStream:
    def test_stored_operation_records_match_reference(self):
        """A seeded upgrade that loses its AMI mid-run, with an unmodelled
        line and chatter on its log: every operation record central
        storage holds carries the reference annotation's tags and fields,
        then the one ``conformance:`` tag its check added."""
        from repro.operations.rolling_upgrade import standard_bindings
        from repro.testbed import Testbed

        from .reference_scan import linear_scan
        from .reference_tags import reference_annotation

        testbed = Testbed(cluster_size=4, seed=2014)

        def inject():
            yield testbed.engine.timeout(30)
            for message in (
                "Unexpected reply from the cloud API for group asg-dsn",
                "DEBUG com.netflix.asgard.Task Terminating instance i-00000009 (dry run)",
            ):
                testbed.stream.emit(LogRecord(testbed.engine.now, "asgard.log", message))
            apply_fault(testbed, "AMI_UNAVAILABLE")

        testbed.engine.process(inject())
        testbed.run_upgrade(trace_id="upgrade-1")
        library = testbed.pod.library
        bindings = standard_bindings().bindings
        stored = [
            r for r in testbed.pod.storage.records
            if isinstance(r, LogRecord) and r.source == testbed.stream.name
        ]
        for rec in stored:
            fresh = LogRecord(rec.time, rec.source, rec.message)
            tags, fields, _ = reference_annotation(
                fresh, linear_scan(library, rec.message), testbed.pod.model.model_id,
                "upgrade-1", bindings,
            )
            assert rec.tags == tags.tags + [f"conformance:{rec.tag_value('conformance')}"]
            assert list(rec.fields.items()) == list(fields.items())
        steps = [r.tag_value("step") for r in stored]
        assert "unclassified" in steps and "DEBUG" not in " ".join(r.message for r in stored)
        assert any(r.has_tag("known-error") for r in stored)
        assert any(t.startswith("assert:") for r in stored for t in r.tags)


class TestCentralLogStorage:
    def test_query_conjunctive(self):
        storage = CentralLogStorage()
        a = LogRecord(time=1, source="x", message="alpha", tags=["trace:t1"])
        b = AssertionResult("beta", True, "", 2, context=ProcessContext("p", "t1"))
        c = AssertionResult("gamma", False, "", 3, context=ProcessContext("p", "t2"))
        for rec in (a, b, c):
            storage.append(rec)
        assert storage.query(type="assertion") == [b, c]
        assert storage.query(tag="trace:t1") == [a, b]
        assert storage.query(tag="trace:t1", type="assertion") == [b]
        assert storage.query() == [a, b, c]

    def test_by_trace_and_traces(self):
        storage = CentralLogStorage()
        for trace in ("t1", "t2", "t1"):
            rec = LogRecord(time=0, source="s", message="m", tags=[f"trace:{trace}"])
            storage.append(rec)
        assert len(storage.by_trace("t1")) == 2
        assert len(storage.by_trace("t2")) == 1
        assert storage.by_trace("t3") == []
