"""Classify-once: one scan per record across the whole pipeline.

Regression for the seed behaviour where the noise filter classified a
record and threw the result away, so the annotator, conformance checker
and gap measurement each re-scanned the same line — up to four full
library scans per record.
"""

from repro.logsys.annotator import ProcessAnnotator
from repro.logsys.filters import NoiseFilter
from repro.logsys.patterns import LogPattern, PatternLibrary, classify_record
from repro.logsys.record import LogRecord
from repro.obs import Observability
from repro.operations.rolling_upgrade import build_pattern_library, reference_process_model
from repro.process.conformance import ConformanceChecker


class CountingLibrary(PatternLibrary):
    """Counts full classify scans per message."""

    def __init__(self, patterns=()):
        super().__init__(patterns)
        self.scans: dict[str, int] = {}

    def classify(self, message):
        self.scans[message] = self.scans.get(message, 0) + 1
        return super().classify(message)


def _counting_rolling_upgrade_library() -> CountingLibrary:
    return CountingLibrary(build_pattern_library().patterns)


class TestClassifyOnce:
    def test_record_is_scanned_exactly_once_end_to_end(self):
        """Filter → annotator → conformance on one shared library: one scan."""
        library = _counting_rolling_upgrade_library()
        noise_filter = NoiseFilter(library, passthrough_unmatched=True)
        annotator = ProcessAnnotator(library, "rolling-upgrade", "t-1")
        checker = ConformanceChecker(reference_process_model(), library)

        message = "Pushing ami-123 into group asg-x: rolling upgrade task started"
        record = LogRecord(time=1.0, source="op.log", message=message, tags=["trace:t-1"])

        assert noise_filter.accepts(record)
        annotator.annotate(record)
        checker.check(record)
        assert library.scans[message] == 1

    def test_memo_rides_on_the_record(self):
        library = PatternLibrary([LogPattern("hit", r"hot path")])
        record = LogRecord(time=0.0, source="s", message="hot path taken")
        first = classify_record(library, record)
        assert record.classification is first
        assert record.classified_by is library
        assert classify_record(library, record) is first

    def test_different_library_does_not_reuse_memo(self):
        one = CountingLibrary([LogPattern("a", r"alpha")])
        two = CountingLibrary([LogPattern("a", r"alpha"), LogPattern("b", r"beta")])
        record = LogRecord(time=0.0, source="s", message="beta line")
        assert not classify_record(one, record).matched
        assert classify_record(two, record).activity == "b"
        assert one.scans["beta line"] == 1 and two.scans["beta line"] == 1
        # The memo now belongs to `two`; re-asking `two` is free.
        classify_record(two, record)
        assert two.scans["beta line"] == 1

    def test_memo_metrics_count_hits_and_misses(self):
        obs = Observability()
        library = PatternLibrary([LogPattern("x", r"match me")])
        noise_filter = NoiseFilter(library, passthrough_unmatched=True, obs=obs)
        record = LogRecord(time=0.0, source="s", message="match me please")
        noise_filter.accepts(record)
        classify_record(library, record, obs.metrics)
        classify_record(library, record, obs.metrics)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["classify.memo.misses"] == 1
        assert counters["classify.memo.hits"] == 2

    def test_plain_objects_without_slots_still_classify(self):
        class Bare:
            __slots__ = ("message",)

            def __init__(self, message):
                self.message = message

        library = PatternLibrary([LogPattern("x", r"yes")])
        assert classify_record(library, Bare("yes indeed")).activity == "x"
