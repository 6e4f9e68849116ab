"""Tracer semantics: nesting, async spans, activation, disabled no-op."""

import pickle

import pytest

from repro.obs.trace import Span, Tracer
from repro.testbed import Testbed


class FakeClock:
    """Mutable virtual clock standing in for an engine."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestSynchronousSpans:
    def test_context_manager_nests_and_times(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("record", "ingest", source="asgard.log"):
            clock.now = 1.0
            with tracer.span("check", "conformance") as inner:
                clock.now = 2.5
                inner.set(status="fit")
        spans = tracer.export()
        assert [s.name for s in spans] == ["record", "check"]
        outer, inner = spans
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert (outer.start, outer.end) == (0.0, 2.5)
        assert (inner.start, inner.end) == (1.0, 2.5)
        assert inner.attrs == {"status": "fit"}
        assert outer.attrs == {"source": "asgard.log"}

    def test_span_ids_sequential_in_creation_order(self):
        tracer = Tracer(FakeClock())
        with tracer.span("a", "s"):
            with tracer.span("b", "s"):
                pass
        with tracer.span("c", "s"):
            pass
        assert [s.span_id for s in tracer.export()] == [1, 2, 3]

    def test_siblings_share_parent(self):
        tracer = Tracer(FakeClock())
        with tracer.span("parent", "s") as parent:
            with tracer.span("first", "s"):
                pass
            with tracer.span("second", "s"):
                pass
        spans = tracer.export()
        assert [s.parent_id for s in spans[1:]] == [parent.span_id, parent.span_id]


class TestAsyncSpans:
    def test_start_span_adopts_current_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("trigger", "ingest") as trigger:
            pending = tracer.start_span("evaluate", "assertion", cause="log")
        # The synchronous section closed; the async span is still open.
        clock.now = 7.0
        tracer.finish(pending, result="passed")
        span = tracer.export()[1]
        assert span.parent_id == trigger.span_id
        assert span.end == 7.0
        assert span.attrs == {"cause": "log", "result": "passed"}

    def test_explicit_parent_chains_async_stages(self):
        tracer = Tracer(FakeClock())
        walk = tracer.start_span("walk", "diagnosis")
        test = tracer.start_span("test", "diagnosis", parent=walk)
        tracer.finish(test)
        tracer.finish(walk)
        spans = tracer.export()
        assert spans[1].parent_id == spans[0].span_id

    def test_activate_parents_sync_callbacks_under_async_span(self):
        tracer = Tracer(FakeClock())
        evaluation = tracer.start_span("evaluate", "assertion")
        with tracer.activate(evaluation):
            with tracer.span("walk", "diagnosis"):
                pass
        tracer.finish(evaluation)
        walk = tracer.export()[1]
        assert walk.parent_id == evaluation.span_id

    def test_finish_is_idempotent_on_end_time(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.start_span("x", "s")
        clock.now = 1.0
        tracer.finish(span)
        clock.now = 9.0
        tracer.finish(span, late_attr=True)
        exported = tracer.export()[0]
        assert exported.end == 1.0
        assert exported.attrs["late_attr"] is True


class TestDeterminism:
    def _record(self, tracer: Tracer, clock: FakeClock) -> None:
        with tracer.span("record", "ingest"):
            clock.now += 0.5
            with tracer.span("check", "conformance", status="fit"):
                pass
        pending = tracer.start_span("evaluate", "assertion")
        clock.now += 1.0
        tracer.finish(pending, result="failed")

    def test_identical_operations_identical_export(self):
        first_clock, second_clock = FakeClock(), FakeClock()
        first, second = Tracer(first_clock), Tracer(second_clock)
        for _ in range(3):
            self._record(first, first_clock)
            self._record(second, second_clock)
        assert first.export() == second.export()

    def test_export_round_trips_as_plain_dicts(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        self._record(tracer, clock)
        for span in tracer.export():
            assert set(span.to_dict()) == {
                "span_id", "parent_id", "name", "stage", "start", "end", "attrs"
            }

    def test_span_dataclass_duration(self):
        span = Span(span_id=1, parent_id=None, name="n", stage="s", start=2.0, end=5.5)
        assert span.duration == 3.5
        open_span = Span(span_id=2, parent_id=None, name="n", stage="s", start=2.0)
        assert open_span.duration == 0.0


class TestRecordedOnce:
    """A traced run's export is the tracer's own spans: no per-span copy,
    no reference back to the tracer."""

    @pytest.fixture(scope="class")
    def testbed(self):
        testbed = Testbed(cluster_size=4, seed=7, trace=True)
        testbed.run_upgrade()
        testbed.close()
        return testbed

    def test_export_is_the_tracers_own_spans(self, testbed):
        exported = testbed.obs.export_trace()
        recorded = testbed.obs.tracer.spans
        assert exported and exported is not recorded
        assert len(exported) == len(recorded)
        assert all(mine is theirs for mine, theirs in zip(exported, recorded))

    def test_span_holds_only_its_seven_fields(self, testbed):
        fields = {"span_id", "parent_id", "name", "stage", "start", "end", "attrs"}
        for span in testbed.obs.export_trace():
            assert not hasattr(span, "__dict__")
            assert not hasattr(span, "_tracer")
            assert set(span.to_dict()) == fields
        attrs = [id(span.attrs) for span in testbed.obs.export_trace()]
        assert len(set(attrs)) == len(attrs), "spans share an attrs dict"

    def test_span_pickles_equal(self, testbed):
        spans = testbed.obs.export_trace()
        assert pickle.loads(pickle.dumps(spans)) == spans

    def test_data_plane_counted_once(self, testbed):
        # The data plane counts nothing: the region's history is its record.
        exported = testbed.obs.export_metrics(testbed)["counters"]
        assert list(exported) == sorted(exported)
        assert not [k for k in exported if k.startswith("cloud.")]
