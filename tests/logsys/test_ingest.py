"""Tests for raw-log ingestion and replay."""

import pytest

from repro.logsys.ingest import parse_line, read_log
from repro.logsys.record import LogStream, tag_entry

SAMPLE = [
    "[2013-11-19 11:00:00,000] Pushing ami-1 into group asg-dsn: rolling upgrade task started",
    "[2013-11-19 11:00:01,500] Updated launch configuration of group asg-dsn to lc-2 with image ami-1",
    "continuation line without a stamp",
    "",
    "[2013-11-19 11:01:41,250] Terminating instance i-1 in group asg-dsn",
]


class TestParsing:
    def test_stamped_line(self):
        stamp, body = parse_line(SAMPLE[0])
        assert stamp is not None
        assert stamp.hour == 11
        assert body.startswith("Pushing ami-1")

    def test_unstamped_line(self):
        stamp, body = parse_line("no stamp here")
        assert stamp is None
        assert body == "no stamp here"

    def test_trailing_newline_stripped(self):
        _stamp, body = parse_line("plain\n")
        assert body == "plain"

    @pytest.mark.parametrize(
        "line",
        ["[2013-02-30 00:00:00,000] x", "[2013-13-45 25:61:61,000] x"],
        ids=["feb-30", "every-field-out-of-range"],
    )
    def test_invalid_date_in_stamp_is_unstamped(self, line):
        assert parse_line(line) == (None, line)


class TestReadLog:
    def test_relative_times(self):
        records = read_log(SAMPLE)
        assert [round(r.time, 3) for r in records] == [0.0, 1.5, 1.5, 101.25]

    def test_blank_lines_skipped(self):
        assert len(read_log(SAMPLE)) == 4

    def test_continuation_inherits_time(self):
        records = read_log(SAMPLE)
        assert records[2].message == "continuation line without a stamp"
        assert records[2].time == records[1].time

    def test_continuation_line_keeps_no_stamp(self):
        """A parsed record keeps the stamp it was read with; an unstamped
        line reads ``""``, never a stamp rendered from its inherited time."""
        records = read_log(SAMPLE)
        assert records[1].timestamp == "2013-11-19 11:00:01,500"
        assert records[2].timestamp == ""

    def test_bad_stamp_between_good_lines_keeps_relative_times(self):
        records = read_log(
            [
                "[2013-11-19 11:48:01,100] ok",
                "[2013-02-30 00:00:00,000] bad",
                "[2013-11-19 11:48:03,600] later",
            ]
        )
        assert [r.message for r in records] == ["ok", "[2013-02-30 00:00:00,000] bad", "later"]
        assert [r.time for r in records] == [0.0, 0.0, 2.5]
        assert records[1].timestamp == ""

    def test_source_and_type(self):
        records = read_log(SAMPLE)
        assert records[0].source == "recorded.log"
        assert records[0].type == "operation"


class TestReplay:
    def test_replayed_trace_conformance_checks(self, engine):
        """End-to-end: a captured real log replays through conformance."""
        from repro.logsys.storage import CentralLogStorage
        from repro.operations.rolling_upgrade import (
            build_pattern_library,
            reference_process_model,
        )
        from repro.process.conformance import ConformanceChecker
        from repro.testbed import build_testbed

        # Capture a real upgrade's log, then replay into a fresh checker.
        testbed = build_testbed(cluster_size=4, seed=141)
        testbed.run_upgrade()
        raw = [f"[{r.timestamp}] {r.message}" for r in testbed.stream.records]

        records = read_log(raw)
        checker = ConformanceChecker(
            reference_process_model(),
            build_pattern_library(),
            clock=engine.clock,
            storage=CentralLogStorage(),
        )
        stream = LogStream("replayed")
        replay_trace = [tag_entry("trace:replay-1")]

        def check(record):
            record.add_entries(replay_trace)
            if "DEBUG" not in record.message:
                checker.check(record)

        stream.subscribe(check)
        for record in records:
            stream.emit(record)
        assert checker.fitness_of("replay-1") == 1.0
