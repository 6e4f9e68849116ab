"""Trace export: JSON payload shape and rendered span trees."""

from repro.obs import Observability, Span
from repro.obs.export import render_span_tree, span_children, span_stages, trace_payload
from repro.sim.clock import SimClock


def _spans() -> list[Span]:
    def span(span_id, parent_id, name, stage, start, end, **attrs):
        return Span(span_id, parent_id, name, stage, start, end, attrs)

    return [
        span(1, None, "record", "ingest", 300.0, 300.2),
        span(2, 1, "check", "conformance", 300.0, 300.0, status="fit"),
        span(3, 1, "evaluate", "assertion", 300.0, 301.5, result="failed"),
        span(4, 3, "walk", "diagnosis", 301.5, 303.0),
    ]


class TestIndexes:
    def test_span_children_groups_by_parent(self):
        children = span_children(_spans())
        assert [s.span_id for s in children[None]] == [1]
        assert [s.span_id for s in children[1]] == [2, 3]
        assert [s.span_id for s in children[3]] == [4]

    def test_span_stages_counts_sorted(self):
        assert span_stages(_spans()) == {
            "assertion": 1, "conformance": 1, "diagnosis": 1, "ingest": 1
        }


class TestRenderTree:
    def test_indentation_follows_nesting(self):
        lines = render_span_tree(_spans(), title="run-1").splitlines()
        assert lines[0] == "run-1"
        assert lines[1].lstrip() == lines[1]  # root at column zero
        assert lines[2].startswith("  ") and not lines[2].startswith("    ")
        assert lines[4].startswith("    ")  # diagnosis under assertion
        assert "conformance:check" in lines[2]
        assert "status=fit" in lines[2]

    def test_summary_line_counts_all_stages(self):
        lines = render_span_tree(_spans()).splitlines()
        assert lines[-1] == "4 spans (assertion=1, conformance=1, diagnosis=1, ingest=1)"

    def test_truncation_reports_dropped_spans(self):
        rendered = render_span_tree(_spans(), max_spans=2)
        assert "... (2 more spans; see the JSON export)" in rendered

    def test_title_does_not_count_against_the_limit(self):
        spans = _spans() + [Span(5, 4, "test", "diagnosis", 302.0, 302.5, {})]
        lines = render_span_tree(spans, title="run-1", max_spans=3).splitlines()
        shown = [line for line in lines if line.lstrip().startswith("[")]
        assert lines[0] == "run-1"
        assert len(shown) == 3
        assert lines[4] == "... (2 more spans; see the JSON export)"

    def test_open_span_rendered_without_duration(self):
        spans = [Span(span_id=1, parent_id=None, name="walk", stage="diagnosis", start=10.0)]
        assert "(open)" in render_span_tree(spans)


class TestPayload:
    def test_trace_payload_shape(self):
        payload = trace_payload("run-9", _spans(), {"counters": {"a": 1}})
        assert payload["run_id"] == "run-9"
        assert payload["span_count"] == 4
        assert payload["stages"]["ingest"] == 1
        assert payload["spans"] == [span.to_dict() for span in _spans()]
        assert payload["spans"][0] == {
            "span_id": 1, "parent_id": None, "name": "record", "stage": "ingest",
            "start": 300.0, "end": 300.2, "attrs": {},
        }
        assert payload["metrics"] == {"counters": {"a": 1}}

    def test_none_metrics_becomes_empty_dict(self):
        assert trace_payload("r", [], None)["metrics"] == {}


class TestObservability:
    def test_for_engine_binds_virtual_clock(self):
        class FakeEngine:
            clock = SimClock()

        FakeEngine.clock.advance_to(42.0)
        obs = Observability.for_engine(FakeEngine())
        with obs.tracer.span("a", "s"):
            pass
        assert obs.export_trace()[0].start == 42.0
