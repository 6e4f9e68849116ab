"""Tests for log records, streams and patterns."""

import pytest

from repro.logsys.patterns import END, PROGRESS, LogPattern, PatternLibrary
from repro.logsys.record import LogRecord, LogStream, tag_entry
from repro.sim.clock import SimClock


class TestLogRecord:
    def test_add_tag_deduplicates(self):
        # Adding a tag the record already holds is skipped.
        record = LogRecord(time=0, source="s", message="m")
        record.add_entries([tag_entry("x")])
        record.add_entries([tag_entry("x")])
        assert record.tags == ["x"]

    def test_tag_value_prefix_lookup(self):
        record = LogRecord(time=0, source="s", message="m", tags=["step:ready", "trace:t1"])
        assert record.tag_value("step") == "ready"
        assert record.tag_value("trace") == "t1"
        assert record.tag_value("ghost") is None

    def test_tag_value_sees_tags_added_later(self):
        record = LogRecord(time=0, source="s", message="m")
        assert record.tag_value("step") is None
        record.add_entries([tag_entry("step:ready")])
        assert record.tag_value("step") == "ready"

    def test_tag_value_first_wins_for_duplicate_keys(self):
        record = LogRecord(time=0, source="s", message="m", tags=["step:first"])
        record.add_entries([tag_entry("step:second")])
        assert record.tag_value("step") == "first"
        assert record.tags == ["step:first", "step:second"]

    def test_tag_value_prefix_containing_colon(self):
        # A prefix holds no ":" (the key index splits at the first one),
        # so one that does finds nothing; the value keeps its colons.
        record = LogRecord(time=0, source="s", message="m", tags=["a:b:c"])
        assert record.tag_value("a") == "b:c"
        assert record.tag_value("a:b") is None

    def test_valueless_tag_is_not_a_key(self):
        record = LogRecord(time=0, source="s", message="m", tags=["operation-log"])
        assert record.has_tag("operation-log")
        assert record.tag_value("operation-log") is None

    def test_tag_order_preserved_with_index(self):
        record = LogRecord(time=0, source="s", message="m")
        record.add_entries(map(tag_entry, ("z:1", "a:2", "m:3")))
        assert record.tags == ["z:1", "a:2", "m:3"]
        assert record.tag_value("a") == "2"

    def test_str_contains_tags_and_message(self):
        record = LogRecord(time=0, source="s", message="msg", tags=["t1"], timestamp="TS")
        assert "t1" in str(record) and "msg" in str(record)


class TestPickleBoundary:
    """A record pickles as its slots, by the default protocol: the
    round trip keeps its tags and their index, and the classify-once memo's
    identity guard makes a restored record re-classify against the live
    library."""

    def _classified_record(self):
        import pickle

        from repro.logsys.patterns import classify_record

        library = PatternLibrary([LogPattern("alpha", r"doing alpha", position=END)])
        record = LogRecord(
            time=3.0, source="op.log", message="doing alpha", tags=["trace:t1"], timestamp="TS"
        )
        record.fields["n"] = "2"
        classification = classify_record(library, record)
        assert classification.matched
        assert record.classification is classification
        assert record.classified_by is library
        return pickle, record, library

    def test_round_trip_rebuilds_tag_index(self):
        pickle, record, _library = self._classified_record()
        restored = pickle.loads(pickle.dumps(record))
        assert restored.tag_value("trace") == "t1"
        restored.add_entries([tag_entry("step:ready")])
        assert restored.tag_value("step") == "ready"

    def test_restored_record_can_be_reclassified(self):
        pickle, record, library = self._classified_record()
        from repro.logsys.patterns import classify_record

        restored = pickle.loads(pickle.dumps(record))
        classification = classify_record(library, restored)
        assert classification.matched and classification.activity == "alpha"
        assert restored.classification is classification


class TestLogStream:
    def test_emit_notifies_subscribers_in_order(self):
        stream = LogStream("op.log")
        seen = []
        stream.subscribe(lambda r: seen.append(("a", r.message)))
        stream.subscribe(lambda r: seen.append(("b", r.message)))
        stream.emit(LogRecord(time=0, source="op.log", message="x"))
        assert seen == [("a", "x"), ("b", "x")]

    def test_unsubscribe_during_delivery_still_sees_current_record(self):
        stream = LogStream("op.log")
        seen = []

        def once(record):
            stream.unsubscribe(once)
            stream.unsubscribe(later)
            seen.append(("once", record.message))

        def later(record):
            seen.append(("later", record.message))

        stream.subscribe(once)
        stream.subscribe(later)
        stream.emit(LogRecord(time=0, source="op.log", message="x"))
        stream.emit(LogRecord(time=1, source="op.log", message="y"))
        assert seen == [("once", "x"), ("later", "x")]
        stream.unsubscribe(once)  # already gone: a no-op

    def test_emit_line_stamps_clock(self):
        clock = SimClock()
        clock.advance_to(61.0)
        stream = LogStream("op.log")
        record = stream.emit_line(clock, "hello")
        assert record.time == 61.0
        assert record.timestamp.startswith("2013-11-19 11:01:01")

    def test_records_retained(self):
        stream = LogStream("op.log")
        clock = SimClock()
        stream.emit_line(clock, "one")
        stream.emit_line(clock, "two")
        assert len(stream.records) == 2
        assert [r.message for r in stream.records] == ["one", "two"]


class TestLogPattern:
    def test_invalid_position_rejected(self):
        with pytest.raises(ValueError):
            LogPattern("a", "x", position="middle")

    def test_match_extracts_named_groups(self):
        pattern = LogPattern("ready", r"Instance (?P<instanceid>i-\w+) ready")
        fields = pattern.match("Instance i-abc123 ready")
        assert fields == {"instanceid": "i-abc123"}

    def test_no_match_returns_none(self):
        pattern = LogPattern("ready", r"ready")
        assert pattern.match("nothing here") is None


class TestPatternLibrary:
    def _library(self):
        return PatternLibrary(
            [
                LogPattern("specific", r"Instance (?P<instanceid>i-\w+) terminated", position=END),
                LogPattern("generic", r"Instance", position=PROGRESS),
            ]
        )

    def test_first_match_wins(self):
        classification = self._library().classify("Instance i-1 terminated")
        assert classification.activity == "specific"

    def test_fallthrough_to_later_pattern(self):
        classification = self._library().classify("Instance booting")
        assert classification.activity == "generic"

    def test_unmatched(self):
        classification = self._library().classify("unrelated text")
        assert not classification.matched
        assert classification.activity is None

    def test_activities_in_first_seen_order(self):
        patterns = self._library().patterns
        assert list(dict.fromkeys(p.activity for p in patterns)) == ["specific", "generic"]
