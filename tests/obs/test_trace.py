"""A run's trace, read from its records at export (:func:`repro.obs.run_trace`)."""

import collections
import dataclasses
import pickle

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, run_single
from repro.obs import Observability, run_trace
from repro.obs.trace import Span
from repro.testbed import Testbed

#: A small-cluster seed-2014 run whose severe + recover twin diagnoses,
#: recovers and resumes: every record the trace is read from.
RUN_ID = "ami_changed-07"


def spec_for(**flags):
    specs = Campaign(CampaignConfig(seed=2014, **flags)).build_specs()
    return next(spec for spec in specs if spec.run_id == RUN_ID)


@dataclasses.dataclass
class Traced:
    testbed: Testbed
    outcome: object

    @property
    def spans(self) -> list[Span]:
        return self.outcome.trace

    def by_id(self) -> dict[int, Span]:
        return {span.span_id: span for span in self.spans}

    def named(self, stage: str, name: str) -> list[Span]:
        return [s for s in self.spans if (s.stage, s.name) == (stage, name)]


def traced_run(spec) -> Traced:
    """Run ``spec`` and keep its testbed (closed, as ``run_single`` leaves it)."""
    kept = []
    original_close = Testbed.close

    def keep(self):
        kept.append(self)
        original_close(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Testbed, "close", keep)
        outcome = run_single(spec)
    return Traced(kept[0], outcome)


@pytest.fixture(scope="module")
def run() -> Traced:
    return traced_run(spec_for(chaos_profile="severe", recover=True, trace=True))


class TestReadFromRecords:
    def test_one_ingest_and_one_check_span_per_conformance_result(self, run):
        results = run.testbed.pod.conformance.results
        ingest, checks = run.named("ingest", "record"), run.named("conformance", "check")
        assert len(ingest) == len(checks) == len(results) > 0
        ids = run.by_id()
        for check, result in zip(checks, results):
            parent = ids[check.parent_id]
            assert (parent.stage, parent.start, parent.end) == ("ingest", result.time, result.time)
            assert check.attrs == {
                "status": result.status, "activity": result.activity, "trace": result.trace_id,
            }
        assert all(span.parent_id is None for span in ingest)

    def test_evaluations_parent_under_their_log_record_and_timers_are_roots(self, run):
        results = [r for r in run.testbed.pod.assertions.results if r.cause != "on-demand"]
        evaluations = run.named("assertion", "evaluate")
        assert len(evaluations) == len(results)
        ids = run.by_id()
        causes = collections.Counter()
        for span in evaluations:
            parent = ids.get(span.parent_id)
            causes[span.attrs["cause"], parent.stage if parent else None] += 1
            assert span.start <= span.end
        assert set(causes) <= {("log", "ingest"), ("timer-timeout", None)}
        assert causes["log", "ingest"] > 0

    def test_walks_parent_under_the_entry_that_triggered_them(self, run):
        reports = run.testbed.pod.diagnosis.completed
        walks = run.named("diagnosis", "walk")
        assert len(walks) == len(reports) > 0
        ids = run.by_id()
        expected = {"assertion": ("assertion", "evaluate"), "conformance": ("conformance", "check")}
        for walk in walks:
            parent = ids[walk.parent_id]
            assert (parent.stage, parent.name) == expected[walk.attrs["trigger"]]
            assert parent.end == walk.start

    def test_one_test_span_per_test_execution(self, run):
        reports = run.testbed.pod.diagnosis.completed
        tests = run.named("diagnosis", "test")
        assert len(tests) == sum(len(report.tests) for report in reports)
        ids = run.by_id()
        assert {ids[span.parent_id].name for span in tests} == {"walk"}
        looked = [s for s in tests if not s.attrs.get("cached")]
        assert looked and all(s.end >= s.start for s in looked)

    def test_recovery_actions_nest_under_their_execute(self, run):
        (execute,) = run.named("recovery", "execute")
        (result,) = run.testbed.recoveries[0].results
        actions = [s for s in run.spans if s.stage == "recovery" and s.name != "execute"]
        assert execute.parent_id is None
        assert (execute.start, execute.end) == (result.started_at, result.finished_at)
        assert execute.attrs == {"actions": len(result.actions), "status": result.status}
        assert actions and all(s.parent_id == execute.span_id for s in actions)
        assert [s.name for s in actions] == [a.action for a in result.actions]

    def test_every_span_is_closed(self, run):
        assert all(span.end is not None for span in run.spans)


class TestSynchronousSpans:
    def test_span_ids_sequential_in_creation_order(self, run):
        spans = run.spans
        assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
        assert [s.start for s in spans] == sorted(s.start for s in spans)
        # Handed out in start order, a parent before any child.
        assert all(s.parent_id is None or s.parent_id < s.span_id for s in spans)

    def test_siblings_share_parent(self, run):
        ids = run.by_id()
        walk = next(w for w in run.named("diagnosis", "walk") if w.attrs["tests"] > 1)
        tests = [s for s in run.spans if s.parent_id == walk.span_id]
        assert len(tests) == walk.attrs["tests"]
        assert {ids[s.parent_id].span_id for s in tests} == {walk.span_id}


class TestAsyncSpans:
    def test_explicit_parent_chains_async_stages(self, run):
        """ingest → evaluate → walk → test: each stage starts where the one
        that caused it stands, across engine yields."""
        ids = run.by_id()
        chains = set()
        for test in run.named("diagnosis", "test"):
            chain, span = [], test
            while span is not None:
                chain.append(f"{span.stage}:{span.name}")
                span = ids.get(span.parent_id)
            chains.add(tuple(reversed(chain)))
        assert (
            "ingest:record", "assertion:evaluate", "diagnosis:walk", "diagnosis:test"
        ) in chains


class TestDeterminism:
    def test_identical_operations_identical_export(self, run):
        again = traced_run(spec_for(chaos_profile="severe", recover=True, trace=True))
        assert again.spans == run.spans

    def test_tracing_changes_nothing_the_run_records(self, run):
        """The untraced twin keeps the same records: read at export, they
        give the traced run's spans."""
        twin = traced_run(spec_for(chaos_profile="severe", recover=True))
        assert twin.outcome.trace is None
        assert run_trace(twin.testbed) == run.spans
        assert dataclasses.replace(
            twin.outcome, spec=run.outcome.spec, trace=run.spans, metrics={}
        ) == dataclasses.replace(run.outcome, metrics={})

    def test_export_round_trips_as_plain_dicts(self, run):
        for span in run.spans:
            assert set(span.to_dict()) == {
                "span_id", "parent_id", "name", "stage", "start", "end", "attrs"
            }

    def test_span_dataclass_duration(self):
        span = Span(span_id=1, parent_id=None, name="n", stage="s", start=2.0, end=5.5)
        assert span.duration == 3.5
        open_span = Span(span_id=2, parent_id=None, name="n", stage="s", start=2.0)
        assert open_span.duration == 0.0


class TestRecordedOnce:
    """A span is read from a record each time the trace is exported; the
    run holds no span."""

    def test_each_export_is_fresh(self, run):
        first, second = (Observability().export_trace(run.testbed) for _ in range(2))
        assert first == second
        assert not {id(span) for span in first} & {id(span) for span in second}

    def test_span_holds_only_its_seven_fields(self, run):
        fields = {"span_id", "parent_id", "name", "stage", "start", "end", "attrs"}
        for span in run.spans:
            assert not hasattr(span, "__dict__")
            assert set(span.to_dict()) == fields
        attrs = [id(span.attrs) for span in run.spans]
        assert len(set(attrs)) == len(attrs), "spans share an attrs dict"

    def test_span_pickles_equal(self, run):
        assert pickle.loads(pickle.dumps(run.spans)) == run.spans

    def test_data_plane_counted_once(self, run):
        # The data plane counts nothing: the region's history is its record.
        exported = run.outcome.metrics["counters"]
        assert list(exported) == sorted(exported)
        assert not [k for k in exported if k.startswith("cloud.")]
