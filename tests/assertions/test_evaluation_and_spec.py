"""Tests for the evaluation service's trigger paths."""

import pytest

from repro.assertions.base import Assertion, AssertionEnvironment
from repro.assertions.consistent_api import ConsistentApiClient, ConsistentCallError
from repro.assertions.evaluation import AssertionEvaluationService
from repro.cloud.errors import MalformedRequest, ServiceUnavailable
from repro.logsys.record import LogRecord
from repro.logsys.storage import CentralLogStorage
from repro.sim.latency import ConstantLatency


class StubAssertion(Assertion):
    """Configurable assertion double."""

    def __init__(self, assertion_id="stub", passes=True, delay=0.1):
        self.assertion_id = assertion_id
        self.passes = passes
        self.delay = delay
        self.seen_params = []

    def evaluate(self, env, params):
        self.seen_params.append(dict(params))
        yield env.engine.timeout(self.delay)
        return self._result(self.passes, "stubbed", params)


class UnreadableAssertion(Assertion):
    """Assertion whose read fails after ``delay`` and lets the failure out."""

    def __init__(self, error, assertion_id="unreadable", delay=0.4):
        self.assertion_id = assertion_id
        self.error = error
        self.delay = delay

    def evaluate(self, env, params):
        yield env.engine.timeout(self.delay)
        raise self.error


class RepositoryReader(Assertion):
    """Answers with the ``asg_name`` its environment's repository holds."""

    assertion_id = "reader"

    def evaluate(self, env, params):
        yield env.engine.timeout(0.1)
        observed = {"asg_name": env.expected("asg_name", params)}
        return self._result(True, "read", params, observed)


def chaos_error():
    error = ServiceUnavailable("chaos: unavailable")
    error.chaos = True
    return error


@pytest.fixture
def service(engine):
    env = AssertionEnvironment(
        engine=engine,
        client=ConsistentApiClient(engine, object(), latency=ConstantLatency(0.01)),
        # No cloud behind this engine: nothing here reads a monitor, region
        # state or CloudTrail.
        monitor=None,
        state=None,
        trail=None,
    )
    storage = CentralLogStorage()
    failures = []
    svc = AssertionEvaluationService(env, storage=storage, on_failure=failures.append)
    svc.watch("t1", {"asg_name": "asg-x"})
    svc.storage_records = storage
    svc.failure_list = failures
    return svc


def tagged_record(fields=None):
    record = LogRecord(
        time=0.0, source="op", message="x", tags=["trace:t1", "step:ready", "position:end"]
    )
    record.fields.update(fields or {})
    return record


class TestTriggerPaths:
    def test_log_trigger_passes_fields_as_params(self, service, engine):
        stub = StubAssertion()
        service.register(stub)
        service.trigger_from_log(tagged_record({"instanceid": "i-1"}), ["stub"])
        engine.run()
        assert stub.seen_params == [{"instanceid": "i-1"}]
        assert service.results[0].cause == "log"
        assert service.results[0].context.trace_id == "t1"

    def test_failure_invokes_callback(self, service, engine):
        service.register(StubAssertion(passes=False))
        service.trigger_from_log(tagged_record(), ["stub"])
        engine.run()
        assert len(service.failure_list) == 1

    def test_on_demand_never_invokes_callback(self, service, engine):
        service.register(StubAssertion(passes=False))
        result = engine.run(until=engine.process(service.evaluate_on_demand("stub", {}, "t1")))
        assert result.failed
        assert result.cause == "on-demand"
        assert service.failure_list == []

    def test_timer_trigger_records_timeout_cause(self, service, engine):
        service.register(StubAssertion())
        service.trigger_from_timer("t1", ["stub"])
        engine.run()
        assert service.results[0].cause == "timer-timeout"
        assert service.results[0].context is None

    def test_each_trigger_reads_its_own_traces_repository(self, service, engine):
        """A log trigger is judged by its line's trace, a timer trigger by
        the watchdog's, an on-demand one by the trace the diagnosis names;
        an unwatched trace has no repository to fall back on."""
        service.watch("t2", {"asg_name": "asg-y"})
        service.register(RepositoryReader())
        service.trigger_from_log(tagged_record(), ["reader"])
        service.trigger_from_timer("t2", ["reader"])
        engine.run(until=engine.process(service.evaluate_on_demand("reader", {}, "t2")))
        engine.run()
        assert sorted((r.cause, r.trace_id, r.observed["asg_name"]) for r in service.results) == [
            ("log", "t1", "asg-x"),
            ("on-demand", "t2", "asg-y"),
            ("timer-timeout", "t2", "asg-y"),
        ]
        with pytest.raises(KeyError):
            engine.run(until=engine.process(service.evaluate_on_demand("reader", {}, "t3")))

    def test_unknown_assertion_raises(self, service):
        with pytest.raises(KeyError):
            service.trigger_from_log(tagged_record(), ["ghost"])

    def test_results_logged_to_storage(self, service, engine):
        service.register(StubAssertion(passes=False))
        service.trigger_from_log(tagged_record(), ["stub"])
        engine.run()
        logged = service.storage_records.query(type="assertion")
        assert len(logged) == 1
        assert "FAILED" in logged[0].message
        assert logged[0].tags == [
            "assert:stub", "assertion-failed", "cause:log", "trace:t1", "step:ready",
        ]
        prefixes = ("assert", "cause", "trace", "step")
        values = {prefix: logged[0].tag_value(prefix) for prefix in prefixes}
        assert values == {"assert": "stub", "cause": "log", "trace": "t1", "step": "ready"}
        assert logged[0].tag_value("assertion-failed") is None

    def test_concurrent_evaluations_tracked(self, service, engine):
        service.register(StubAssertion(delay=5.0))
        service.trigger_from_log(tagged_record(), ["stub"])
        service.trigger_from_log(tagged_record(), ["stub"])
        assert service.in_flight == 2
        engine.run()
        assert service.in_flight == 0
        assert len(service.results) == 2

    @pytest.mark.parametrize(
        "make_error, flags",
        [
            (lambda: MalformedRequest("bad request"), (False, False)),
            (lambda: ConsistentCallError("deadline", timed_out=True), (True, False)),
            (lambda: ConsistentCallError("exhausted", degraded=True), (False, True)),
            (chaos_error, (False, True)),
        ],
    )
    def test_api_failure_is_one_failed_result_on_every_trigger_path(
        self, service, engine, make_error, flags
    ):
        """"Could not read" is decided once: log, timer and on-demand
        evaluations of an assertion that lets an API failure out give the
        same flags, and the elapsed virtual time as the duration."""
        service.register(UnreadableAssertion(make_error()))
        service.trigger_from_log(tagged_record(), ["unreadable"])
        service.trigger_from_timer("t1", ["unreadable"])
        on_demand = engine.run(
            until=engine.process(service.evaluate_on_demand("unreadable", {}, "t1"))
        )
        engine.run()
        assert sorted(r.cause for r in service.results) == ["log", "on-demand", "timer-timeout"]
        assert on_demand in service.results
        for result in service.results:
            assert result.failed
            assert (result.timed_out, result.degraded) == flags
            assert result.duration == pytest.approx(0.4)
        # Only the log/timer failures start a diagnosis.
        assert sorted(r.cause for r in service.failure_list) == ["log", "timer-timeout"]
        assert service.in_flight == 0

    def test_results_for_filters_by_id(self, service, engine):
        service.register(StubAssertion("a"))
        service.register(StubAssertion("b", passes=False))
        service.trigger_from_log(tagged_record(), ["a", "b"])
        engine.run()
        assert sorted(r.assertion_id for r in service.results) == ["a", "b"]
        assert [r.assertion_id for r in service.results if r.failed] == ["b"]

