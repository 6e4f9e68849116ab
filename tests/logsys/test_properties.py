"""Property-based coverage for the watchdog, storage queries and mining glue."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.assertions.results import AssertionResult
from repro.diagnosis.report import DiagnosisLine
from repro.logsys.record import LogRecord, tag_entry
from repro.logsys.storage import CentralLogStorage
from repro.logsys.timers import TimerSetter
from repro.process.context import ProcessContext
from repro.sim.engine import Engine


def _watchdog(engine, interval, slack, expiries):
    return TimerSetter(
        engine,
        start_activity="begin",
        end_activity="finish",
        align_activities=("step",),
        interval=interval,
        slack=slack,
        on_timeout=lambda trace: expiries.append(engine.now),
    )


def _line(step):
    return LogRecord(time=0.0, source="s", message=step, tags=[f"step:{step}", "trace:t1"])


class TestTimerProperties:
    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.lists(st.floats(min_value=0.5, max_value=40.0), min_size=1, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_kicked_watchdog_never_fires_before_quietest_gap(self, interval, slack, kick_gaps):
        """A kicked watchdog first expires ``interval + slack`` after the
        last kick: kicks inside the window keep it quiet."""
        engine = Engine()
        expiries = []
        setter = _watchdog(engine, interval, slack, expiries)
        setter.observe(_line("begin"))
        kicks = []

        def kicker():
            for gap in kick_gaps:
                yield engine.timeout(min(gap, interval * 0.9))  # always inside the window
                setter.observe(_line("step"))
                kicks.append(engine.now)

        engine.process(kicker())
        engine.run(until=sum(kick_gaps) + interval + slack + 1.0)
        assert expiries, "the watchdog must expire after kicks stop"
        assert expiries[0] == pytest.approx(kicks[-1] + interval + slack)

    @given(st.floats(min_value=1.0, max_value=50.0), st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_periodic_firing_count_matches_horizon(self, interval, periods):
        """An unkicked watchdog expires every ``interval``."""
        engine = Engine()
        expiries = []
        _watchdog(engine, interval, 3.0, expiries).observe(_line("begin"))
        engine.run(until=(periods + 0.5) * interval)
        assert expiries == pytest.approx([k * interval for k in range(1, periods + 1)])


#: A stored entry of each type, at a time, of a trace.
_ENTRIES = {
    "operation": lambda time, trace: LogRecord(time, "s", "m", tags=[f"trace:{trace}"]),
    "assertion": lambda time, trace: AssertionResult(
        "a", True, "m", time, context=ProcessContext("p", trace)
    ),
    "diagnosis": lambda time, trace: DiagnosisLine(time, trace, None, "d-1", "m", ()),
}


class TestStorageProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000),
                st.sampled_from(sorted(_ENTRIES)),
                st.sampled_from(["t1", "t2", "t3"]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_trace_partition_is_complete_and_disjoint(self, rows):
        """Reading by trace loses nothing and invents nothing."""
        storage = CentralLogStorage()
        for time, type_, trace in rows:
            storage.append(_ENTRIES[type_](time, trace))
        grouped = {trace: storage.by_trace(trace) for trace in ("t1", "t2", "t3")}
        assert sum(len(v) for v in grouped.values()) == len(rows)
        for trace, records in grouped.items():
            assert all(r.tag_value("trace") == trace for r in records)


#: Tag vocabulary: simple and compound prefixes, empty parts, bare tags.
_TAGS = st.sampled_from(
    ["trace:a", "trace:b", "step:x", "step:x:y", "a:b:c", "a:b:d", ":v", "trace:", "bare", "x"]
)
#: A prefix holds no ":" (``LogRecord.tag_value``); a value may.
_PREFIXES = st.sampled_from(["trace", "step", "a", "", "bare", "missing"])


class TestTagStoreProperties:
    @given(
        st.lists(_TAGS, max_size=6),
        st.lists(_TAGS, max_size=10),
        st.lists(_PREFIXES, min_size=1, max_size=6),
    )
    @example(["x", "trace:a", "x", "trace:b"], ["x", "trace:c"], ["trace", "x"])
    @settings(max_examples=200, deadline=None)
    def test_record_tags_match_naive_store(self, given_tags, added, prefixes):
        """Constructor tags (duplicates kept as given) plus tags added one
        at a time answer every query as the naive list scan does, before and
        after a pickle round trip."""
        import pickle

        from .reference_tags import NaiveTags

        record = LogRecord(time=0, source="s", message="m", tags=list(given_tags))
        naive = NaiveTags(given_tags)
        assert record.tags == given_tags
        for tag in added:
            record.add_entries([tag_entry(tag)])
            naive.add_tag(tag)
        restored = pickle.loads(pickle.dumps(record))
        for store in (record, restored):
            assert store.tags == naive.tags
            for prefix in prefixes:
                assert store.tag_value(prefix) == naive.tag_value(prefix), prefix
            for tag in added + given_tags + ["absent"]:
                assert store.has_tag(tag) == naive.has_tag(tag)
        # The restored index keeps working for tags added after the trip.
        restored.add_entries([tag_entry("late:z")])
        naive.add_tag("late:z")
        assert restored.tag_value("late") == naive.tag_value("late")


#: Fragments noise lines are built from: each drop regex's trigger plus
#: near misses (wrong case, no word boundary, missing ``for status``, a
#: guard literal present while the regex still fails).
_NOISE_FRAGMENTS = st.sampled_from(
    [
        "DEBUG", "TRACE", "polling ", " for status", "heartbeat", "polling x for status",
        "debug", "Trace", "DEBUGGING", "xTRACE", "TRACEx", "_DEBUG", "polling for", "status",
        "heart beat", "Heartbeat", " ", "-", "i-001", "group asg-x",
        "XDEBUG", "DEBUGGER", "TRACEBACK", "polling x for statu",
    ]
)


def _dropped(message: str) -> bool:
    """The noise filter's verdict, through its guarded path."""
    from repro.logsys.filters import NoiseFilter
    from repro.logsys.patterns import PatternLibrary

    record = LogRecord(time=0, source="s", message=message)
    return not NoiseFilter(PatternLibrary(), passthrough_unmatched=True).accepts(record)


class TestNoiseRegexProperties:
    @given(st.lists(st.one_of(_NOISE_FRAGMENTS, st.text(max_size=6)), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_one_alternation_equals_four_searches(self, fragments):
        from .reference_noise import is_noise

        message = "".join(fragments)
        assert _dropped(message) == is_noise(message), message

    def test_rolling_upgrade_corpus(self):
        from .reference_noise import is_noise
        from .test_compiled import _corpus
        from .test_pipeline import TestProcessGolden

        corpus = _corpus() + [message for message, _ in TestProcessGolden.CORPUS]
        verdicts = [_dropped(m) for m in corpus]
        assert verdicts == [is_noise(m) for m in corpus]
        assert any(verdicts), "the corpus exercised no noise line"


#: Words guarded alternations are built from: some shorter than
#: ``MIN_LITERAL_LENGTH``, some sharing a prefix so ``sre`` factors it out.
_GUARD_WORDS = ["DEBUG", "DEBUGGER", "TRACE", "heartbeat", "poll", "for status", "ab", "x"]
#: Text fragments: the words, near misses of them, and separators.
_GUARD_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            _GUARD_WORDS + ["XDEBUG", "Heartbeat", "TRAC", "for statu", "debug", " ", "-", "_"]
        ),
        st.text(max_size=4),
    ),
    max_size=8,
)
#: One branch: one or two words joined by ``.*``, optionally ``\b``-wrapped.
_GUARD_BRANCH = st.builds(
    lambda words, bounded: (r"\b{}\b" if bounded else "{}").format(".*".join(words)),
    st.lists(st.sampled_from(_GUARD_WORDS), min_size=1, max_size=2),
    st.booleans(),
)


class TestGuardSoundness:
    @given(st.lists(_GUARD_BRANCH, min_size=1, max_size=4), _GUARD_TEXT)
    @example([r"\bDEBUG\b", r"\bTRACE\b"], ["x", "TRACE"])
    @example(["poll.*for status", "heartbeat"], ["poll", "-", "for status"])
    @settings(max_examples=300, deadline=None)
    def test_guard_never_hides_a_match(self, branches, fragments):
        """Whenever the regex matches, the guard is empty or one of its
        literals is in the text: skipping the search never drops a match."""
        import re

        from repro.logsys.patterns import guard_literals

        regex, text = "|".join(branches), "".join(fragments)
        guard = guard_literals(regex)
        if re.search(regex, text):
            assert guard == () or any(literal in text for literal in guard), (regex, text, guard)


#: Lines for the annotation library below: an optional group that takes
#: part or not, an error line, a line naming a pre-tag's step, and lines
#: no pattern matches.
_ANNOTATED_LINES = st.sampled_from(
    [
        "Launching i-1", "Launching i-2 in zoneb", "Instance i-3 ready", "step x now",
        "Exception during boot", "unrelated line", "",
    ]
)
#: Tags a record may carry before annotation: duplicates, bare tags and
#: every prefix the annotators write.
_PRESET_TAGS = st.sampled_from(
    [
        "process:p", "process:q", "trace:t0", "trace:c:Lau", "step:x", "step:ready",
        "step:unclassified", "position:end", "position:start", "assert:a1", "known-error",
        "bare", "x", ":v", "conformance:fit",
    ]
)
_ACTIVITIES = st.sampled_from(["launch", "ready", "x", "fail", "unclassified", "other"])
_POSITIONS = st.sampled_from(["start", "end", "progress"])
_ASSERTION_IDS = st.lists(st.sampled_from(["a1", "a2", "a:3"]), max_size=3)


def _annotation_library():
    from repro.logsys.patterns import LogPattern, PatternLibrary

    return PatternLibrary(
        [
            LogPattern("launch", r"Launching (?P<instanceid>i-\w+)(?: in (?P<zone>\w+))?",
                       position="start"),
            LogPattern("ready", r"Instance (?P<instanceid>i-\w+) ready", position="end"),
            LogPattern("x", r"step x", position="progress"),
            LogPattern("fail", r"Exception during (?P<what>\w+)", position="end", is_error=True),
        ]
    )


class TestAnnotationProperties:
    @given(
        _ANNOTATED_LINES,
        st.lists(_PRESET_TAGS, max_size=6),
        st.dictionaries(st.sampled_from(["instanceid", "zone", "what", "other"]),
                        st.sampled_from(["p", "q"]), max_size=3),
        st.sampled_from(["p", "q"]),
        st.sampled_from(["t0", "t1", "a:b"]),
        st.lists(st.tuples(_ACTIVITIES, _POSITIONS, _ASSERTION_IDS), max_size=5),
    )
    @example("Launching i-1", ["step:x", "x", "x"], {"zone": "p"}, "p", "t0",
             [("x", "progress", ["a1"]), ("launch", "start", ["a2", "a1", "a2"])])
    @settings(max_examples=200, deadline=None)
    def test_annotators_match_add_tag_sequence(
        self, message, preset, preset_fields, process_id, trace_id, binds
    ):
        """The process then the assertion annotator leave every record as
        one ``add_tag`` per tag on a naive store would: tags in order, the
        first ``prefix:value`` per prefix, membership, fields in order, and
        a fresh list of the assertion ids."""
        from repro.logsys.annotator import AssertionAnnotator, ProcessAnnotator

        from .reference_scan import linear_scan
        from .reference_tags import reference_annotation, reference_bindings

        library = _annotation_library()
        assertions = AssertionAnnotator()
        for activity, position, ids in binds:
            assertions.bind(activity, position, ids)
        bindings = reference_bindings(binds)
        assert assertions.bindings == bindings

        def fresh():
            record = LogRecord(time=0, source="s", message=message, tags=list(preset))
            record.fields.update(preset_fields)
            return record

        expected_tags, expected_fields, expected_ids = reference_annotation(
            fresh(), linear_scan(library, message), process_id, trace_id, bindings
        )
        record = fresh()
        classification = ProcessAnnotator(library, process_id, trace_id).annotate(record)
        ids = assertions.annotate(record)
        assert classification.pattern is linear_scan(library, message).pattern
        assert record.tags == expected_tags.tags
        for prefix in {t.partition(":")[0] for t in record.tags} | {"missing", ""}:
            assert record.tag_value(prefix) == expected_tags.tag_value(prefix), prefix
        for tag in record.tags + ["assert:a2", "absent"]:
            assert record.has_tag(tag) == expected_tags.has_tag(tag)
        assert list(record.fields.items()) == list(expected_fields.items())
        assert ids == expected_ids
        assert all(ids is not bound for bound in assertions.bindings.values())
