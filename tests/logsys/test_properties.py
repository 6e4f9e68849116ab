"""Property-based coverage for timers, storage queries and mining glue."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logsys.record import LogRecord
from repro.logsys.storage import CentralLogStorage
from repro.logsys.timers import PeriodicTimer
from repro.sim.engine import Engine


class TestTimerProperties:
    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.lists(st.floats(min_value=0.5, max_value=40.0), max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_kicked_watchdog_never_fires_before_quietest_gap(self, interval, kick_gaps):
        """A watchdog that is kicked within its interval never times out;
        the first timeout always comes `interval` after the last kick."""
        engine = Engine()
        firings = []
        timer = PeriodicTimer(engine, interval, firings.append, watchdog=True)
        timer.start()
        last_kick = 0.0

        def kicker():
            nonlocal last_kick
            for gap in kick_gaps:
                bounded = min(gap, interval * 0.9)  # always inside the window
                yield engine.timeout(bounded)
                timer.kick()
                last_kick = engine.now

        engine.process(kicker())
        engine.run(until=last_kick + interval + sum(kick_gaps) + 2 * interval)
        timer.stop()
        timeouts = [f for f in firings if f.cause == "timeout"]
        assert timeouts, "the watchdog must eventually expire after kicks stop"
        assert timeouts[0].time == pytest.approx(last_kick + interval)
        # No timeout between consecutive kicks.
        aligned_times = [f.time for f in firings if f.cause == "aligned"]
        for t in (f.time for f in timeouts):
            assert t >= max(aligned_times, default=0.0)

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_periodic_firing_count_matches_horizon(self, periods):
        engine = Engine()
        firings = []
        timer = PeriodicTimer(engine, 10.0, firings.append)
        timer.start()
        engine.run(until=periods * 10.0 + 0.5)
        timer.stop()
        assert len(firings) == periods


class TestStorageProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1000),
                st.sampled_from(["operation", "assertion", "diagnosis"]),
                st.sampled_from(["t1", "t2", "t3"]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_trace_partition_is_complete_and_disjoint(self, rows):
        """Grouping by trace loses nothing and invents nothing."""
        storage = CentralLogStorage()
        for time, type_, trace in rows:
            record = LogRecord(time=time, source="s", message="m", type=type_)
            record.add_tag(f"trace:{trace}")
            storage.append(record)
        grouped = storage.traces()
        assert sum(len(v) for v in grouped.values()) == len(rows)
        for trace, records in grouped.items():
            assert all(r.tag_value("trace") == trace for r in records)

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_time_window_queries_partition(self, times):
        storage = CentralLogStorage()
        for t in times:
            storage.append(LogRecord(time=t, source="s", message="m"))
        pivot = 50.0
        before = storage.query(until=pivot)
        after = storage.query(since=pivot)
        # Records exactly at the pivot appear in both (inclusive bounds);
        # everything else appears exactly once.
        at_pivot = sum(1 for t in times if t == pivot)
        assert len(before) + len(after) == len(times) + at_pivot


class TestMiningFromStorage:
    def test_traces_from_storage_uses_end_positions(self):
        from repro.process.mining.discovery import mine_from_storage, traces_from_storage

        storage = CentralLogStorage()
        script = [
            ("a", "end", 1.0),
            ("b", "start", 2.0),  # start position: excluded by default
            ("b", "end", 3.0),
            ("c", "end", 4.0),
        ]
        for step, position, time in script:
            record = LogRecord(time=time, source="s", message=step, type="operation")
            record.add_tag("trace:t1")
            record.add_tag(f"step:{step}")
            record.add_tag(f"position:{position}")
            storage.append(record)
        traces = traces_from_storage(storage)
        assert traces == [["a", "b", "c"]]
        model = mine_from_storage(storage)
        assert ("a", "b") in model.edges and ("b", "c") in model.edges

    def test_non_operation_records_ignored(self):
        from repro.process.mining.discovery import traces_from_storage

        storage = CentralLogStorage()
        record = LogRecord(time=1.0, source="s", message="x", type="assertion")
        record.add_tag("trace:t1")
        record.add_tag("step:a")
        record.add_tag("position:end")
        storage.append(record)
        assert traces_from_storage(storage) == []

    def test_empty_storage_raises(self):
        from repro.process.mining.discovery import mine_from_storage

        with pytest.raises(ValueError, match="no usable traces"):
            mine_from_storage(CentralLogStorage())


#: Tag vocabulary: simple and compound prefixes, empty parts, bare tags.
_TAGS = st.sampled_from(
    ["trace:a", "trace:b", "step:x", "step:x:y", "a:b:c", "a:b:d", ":v", "trace:", "bare", "x"]
)
_PREFIXES = st.sampled_from(["trace", "step", "step:x", "a", "a:b", "", "bare", "missing"])


class TestTagStoreProperties:
    @given(
        st.lists(_TAGS, max_size=6),
        st.lists(_TAGS, max_size=10),
        st.lists(_PREFIXES, min_size=1, max_size=6),
    )
    @example(["x", "trace:a", "x", "trace:b"], ["x", "trace:c"], ["trace", "x"])
    @settings(max_examples=200, deadline=None)
    def test_record_tags_match_naive_store(self, given_tags, added, prefixes):
        """Constructor tags (duplicates kept as given) plus ``add_tag``
        calls answer every query as the naive list scan does, before and
        after a pickle round trip."""
        import pickle

        from .reference_tags import NaiveTags

        record = LogRecord(time=0, source="s", message="m", tags=list(given_tags))
        naive = NaiveTags(given_tags)
        assert record.tags == given_tags
        for tag in added:
            record.add_tag(tag)
            naive.add_tag(tag)
        restored = pickle.loads(pickle.dumps(record))
        for store in (record, restored):
            assert store.tags == naive.tags
            for prefix in prefixes:
                assert store.tag_value(prefix) == naive.tag_value(prefix), prefix
            for tag in added + given_tags + ["absent"]:
                assert store.has_tag(tag) == naive.has_tag(tag)
        # The restored index keeps working for tags added after the trip.
        restored.add_tag("late:z")
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
