"""Tests for the conformance-checking service."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logsys.patterns import END, LogPattern, PatternLibrary
from repro.logsys.record import LogRecord
from repro.logsys.storage import CentralLogStorage
from repro.process.conformance import ERROR, FIT, UNFIT, UNKNOWN, ConformanceChecker
from repro.process.model import ProcessModel
from repro.sim.clock import SimClock


def model():
    m = ProcessModel("proc")
    m.add_sequence("alpha", "beta", "gamma")
    m.mark_start("alpha")
    m.mark_end("gamma")
    return m


def library():
    return PatternLibrary(
        [
            LogPattern("alpha", r"doing alpha", position=END),
            LogPattern("beta", r"doing beta", position=END),
            LogPattern("gamma", r"doing gamma", position=END),
            LogPattern("op-error", r"ERROR .*", position=END, is_error=True),
        ]
    )


def record(message, trace="t1"):
    return LogRecord(time=0.0, source="op", message=message, tags=[f"trace:{trace}"])


def reference_result_log(result, source, clock):
    """A verdict's result log rendered eagerly, as a LogRecord: what the
    stored verdict must read as."""
    tags = ["trace:" + result.trace_id, "conformance:" + result.status]
    if result.activity:
        tags.append("step:" + result.activity)
    return LogRecord(
        time=clock.now() if clock is not None else source.time,
        source="conformance-checking.log",
        message=f"[conformance] [{result.trace_id}] line classified {result.status}"
        f" (activity={result.activity or 'n/a'})",
        type="conformance",
        tags=tags,
        timestamp=None if clock is not None else source.stamp,
    )


#: Tags that some stored verdicts of the oracle test carry, or none does.
PROBE_TAGS = (
    "trace:t1", "trace:t2", "conformance:fit", "conformance:unfit", "step:alpha",
    "step:n/a", "step:", "trace", "conformance", "",
)


def checker(on_error=None):
    return ConformanceChecker(
        model(), library(), clock=SimClock(), storage=CentralLogStorage(), on_error=on_error
    )


class TestClassification:
    def test_fit_sequence(self):
        service = checker()
        for message in ("doing alpha", "doing beta", "doing gamma"):
            result = service.check(record(message))
            assert result.status == FIT
        assert service.fitness_of("t1") == 1.0

    def test_unfit_out_of_order(self):
        service = checker()
        service.check(record("doing alpha"))
        result = service.check(record("doing gamma"))
        assert result.status == UNFIT
        assert result.context.skipped_activities == ["beta"]
        assert result.context.last_valid_activity == "alpha"

    def test_unknown_line(self):
        service = checker()
        result = service.check(record("what even is this"))
        assert result.status == UNKNOWN
        assert result.is_error

    def test_known_error_line(self):
        service = checker()
        result = service.check(record("ERROR boom"))
        assert result.status == ERROR
        assert result.activity == "op-error"

    def test_record_tagged_with_status(self):
        service = checker()
        rec = record("doing alpha")
        service.check(rec)
        assert rec.has_tag("conformance:fit")

    def test_per_trace_instances_isolated(self):
        service = checker()
        assert service.check(record("doing alpha", trace="t1")).status == FIT
        assert service.check(record("doing alpha", trace="t2")).status == FIT
        # In t1, alpha again is unfit; in a new trace t3 it is fit.
        assert service.check(record("doing alpha", trace="t1")).status == UNFIT

    def _untraced(self, message, source):
        return LogRecord(time=0.0, source=source, message=message)

    def test_untraced_records_isolated_per_source(self):
        # Regression: trace-less records used to share one "unknown"
        # instance, so unrelated sources corrupted each other's tokens —
        # the second source's alpha would have replayed UNFIT.
        service = checker()
        assert service.check(self._untraced("doing alpha", "a.log")).status == FIT
        assert service.check(self._untraced("doing alpha", "b.log")).status == FIT
        assert service.check(self._untraced("doing beta", "a.log")).status == FIT
        assert service.check(self._untraced("doing beta", "b.log")).status == FIT
        # Same source still keeps its own replay state.
        assert service.check(self._untraced("doing alpha", "a.log")).status == UNFIT

    def test_untraced_does_not_collide_with_traced(self):
        service = checker()
        assert service.check(record("doing alpha", trace="t1")).status == FIT
        assert service.check(self._untraced("doing alpha", "op.log")).status == FIT


class TestSideEffects:
    def test_errors_invoke_callback(self):
        errors = []
        service = checker(on_error=errors.append)
        service.check(record("doing alpha"))
        service.check(record("???"))
        assert len(errors) == 1
        assert errors[0].status == UNKNOWN

    def test_results_logged_to_storage(self):
        """Each verdict is stored once, as the object ``results`` holds, and
        reads exactly as its eagerly rendered result log — with a clock,
        and clockless (a replay: the source stamp passes through
        unrendered)."""
        lines = [  # (message, trace id or None, source stamp), in arrival order
            ("doing alpha", "t1", "2013-11-19 11:48:01,100"),
            ("doing gamma", "t1", ""),
            ("ERROR boom", "t1", None),
            ("what even is this", "t2", "2013-11-19 11:48:03,600"),
            ("doing alpha", None, "2013-11-19 11:48:04,000"),
        ]
        for clock in (SimClock(), None):
            storage = CentralLogStorage()
            service = ConformanceChecker(model(), library(), clock=clock, storage=storage)
            expected = []
            for index, (message, trace, stamp) in enumerate(lines):
                if clock is not None:
                    clock.advance_to(3600.0 * index + 0.25)
                tags = None if trace is None else [f"trace:{trace}"]
                source = LogRecord(time=10.0 + index, source="op.log", message=message,
                                   tags=tags, timestamp=stamp)
                result = service.check(source)
                expected.append(reference_result_log(result, source, clock))
            assert [r.status for r in service.results] == [FIT, UNFIT, ERROR, UNKNOWN, FIT]
            assert [r.activity for r in service.results] == [
                "alpha", "gamma", "op-error", None, "alpha",
            ]

            stored = storage.records
            assert len(stored) == len(service.results) == len(expected)
            for entry, result, reference in zip(stored, service.results, expected):
                assert entry is result
                assert entry.time == reference.time
                assert entry.source == reference.source
                assert entry.type == reference.type
                assert entry.message == reference.message
                assert entry.tags == reference.tags
                assert entry.fields == reference.fields
                assert entry.timestamp == reference.timestamp
                assert str(entry) == str(reference)
                for prefix in ("trace", "conformance", "step", "process", "trace:untraced", ""):
                    assert entry.tag_value(prefix) == reference.tag_value(prefix), prefix
                for tag in [*reference.tags, *PROBE_TAGS]:
                    assert entry.has_tag(tag) == reference.has_tag(tag), tag
            assert stored[-1].tag_value("trace") == "untraced:op.log"
            if clock is None:
                assert [entry.stamp for entry in stored] == [stamp for _, _, stamp in lines]
            else:
                assert all(entry.stamp is None for entry in stored)
            assert storage.query(type="conformance") == stored
            assert storage.by_trace("t1") == stored[:3]
            assert storage.by_trace("untraced:op.log") == stored[4:]

    def test_check_count_and_error_results(self):
        service = checker()
        service.check(record("doing alpha"))
        service.check(record("nonsense"))
        assert len(service.results) == 2
        assert [r.status for r in service.results if r.is_error] == [UNKNOWN]


#: Lines the model/library know about, including the known error line.
KNOWN_LINES = ("doing alpha", "doing beta", "doing gamma", "ERROR boom")

#: Garbage that can match no pattern (alphabet shares no substring with
#: "doing ..." or "ERROR ..."), so every noise line classifies UNKNOWN.
noise_lines = st.text(alphabet="xyz0189_", min_size=1, max_size=20)

any_line = st.one_of(st.sampled_from(KNOWN_LINES), noise_lines)


class TestReplayerProperties:
    """Token replay must survive arbitrary log streams (§III.B.2).

    Real operation logs arrive shuffled (concurrent steps), duplicated
    (retries) and truncated (crashed operations); the replayer's job is
    to classify, never to crash.
    """

    @given(lines=st.lists(any_line, max_size=40), trace_count=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_streams_never_crash(self, lines, trace_count):
        service = checker()
        for index, message in enumerate(lines):
            result = service.check(record(message, trace=f"t{index % trace_count}"))
            assert result.status in (FIT, UNFIT, UNKNOWN, ERROR)
            assert result.trace_id == f"t{index % trace_count}"
        assert len(service.results) == len(lines)
        for trace in range(trace_count):
            assert 0.0 <= service.fitness_of(f"t{trace}") <= 1.0

    @given(order=st.permutations(list(KNOWN_LINES[:3]) * 2))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_duplicated_trace_replays(self, order):
        service = checker()
        statuses = [service.check(record(message)).status for message in order]
        # Known activities shuffled/duplicated are always classified as
        # fit or unfit — never unknown, never an exception.
        assert all(status in (FIT, UNFIT) for status in statuses)
        assert [r.status for r in service.results] == statuses

    @given(cut=st.integers(0, 3))
    @settings(max_examples=10, deadline=None)
    def test_truncated_trace_replays(self, cut):
        service = checker()
        for message in KNOWN_LINES[:3][:cut]:
            assert service.check(record(message)).status == FIT
        # A truncated prefix of the happy path is perfectly fit and its
        # fitness never exceeds 1.
        assert 0.0 <= service.fitness_of("t1") <= 1.0

    @given(noise=st.lists(noise_lines, max_size=12), interleave=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_unknown_count_monotone_in_noise(self, noise, interleave):
        base = list(KNOWN_LINES[:3])
        counts = []
        for k in range(len(noise) + 1):
            service = checker()
            if interleave:
                lines = []
                for index, message in enumerate(base):
                    lines.append(message)
                    lines.extend(noise[:k][index::len(base)])
            else:
                lines = base + noise[:k]
            for message in lines:
                service.check(record(message))
            unknown = sum(1 for r in service.results if r.status == UNKNOWN)
            assert unknown == k  # every noise line is UNKNOWN, nothing else is
            counts.append(unknown)
        assert counts == sorted(counts)  # monotone in injected noise
