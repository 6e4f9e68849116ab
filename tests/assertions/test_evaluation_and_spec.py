"""Tests for the evaluation service's trigger paths and the spec language."""

import pytest

from repro.assertions.base import Assertion, AssertionEnvironment
from repro.assertions.consistent_api import ConsistentApiClient, ConsistentCallError
from repro.assertions.evaluation import AssertionEvaluationService
from repro.assertions.library import (
    AsgConfigAssertion,
    AsgInstanceCountAssertion,
    ElbRegistrationAssertion,
    InstanceVersionAssertion,
    ResourceExistsAssertion,
)
from repro.assertions.spec import AssertionSpecError, parse_assertion_spec
from repro.cloud.errors import MalformedRequest, ServiceUnavailable
from repro.logsys.record import LogRecord
from repro.logsys.storage import CentralLogStorage
from repro.logsys.timers import TimerFiring
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
        started = env.engine.now
        yield env.engine.timeout(self.delay)
        return self._result(env, self.passes, "stubbed", params, started)


class UnreadableAssertion(Assertion):
    """Assertion whose read fails after ``delay`` and lets the failure out."""

    def __init__(self, error, assertion_id="unreadable", delay=0.4):
        self.assertion_id = assertion_id
        self.error = error
        self.delay = delay

    def evaluate(self, env, params):
        yield env.engine.timeout(self.delay)
        raise self.error


def chaos_error():
    error = ServiceUnavailable("chaos: unavailable")
    error.chaos = True
    return error


@pytest.fixture
def service(engine):
    env = AssertionEnvironment(
        engine=engine,
        client=ConsistentApiClient(engine, object(), latency=ConstantLatency(0.01)),
        config={"asg_name": "asg-x"},
    )
    storage = CentralLogStorage()
    failures = []
    svc = AssertionEvaluationService(env, storage=storage, on_failure=failures.append)
    svc.storage_records = storage
    svc.failure_list = failures
    return svc


def tagged_record(fields=None):
    record = LogRecord(time=0.0, source="op", message="x", fields=dict(fields or {}))
    record.add_tag("trace:t1")
    record.add_tag("step:ready")
    record.add_tag("position:end")
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
        result = engine.run(until=engine.process(service.evaluate_on_demand("stub", {})))
        assert result.failed
        assert result.cause == "on-demand"
        assert service.failure_list == []

    def test_timer_trigger_records_timeout_cause(self, service, engine):
        service.register(StubAssertion())
        firing = TimerFiring("watchdog", time=0.0, cause="timeout")
        service.trigger_from_timer(firing, ["stub"])
        engine.run()
        assert service.results[0].cause == "timer-timeout"
        assert service.results[0].context is None

    def test_timer_with_record_carries_context(self, service, engine):
        service.register(StubAssertion())
        firing = TimerFiring("t", time=0.0, cause="aligned", record=tagged_record({"num": "4"}))
        service.trigger_from_timer(firing, ["stub"])
        engine.run()
        assert service.results[0].cause == "timer"
        assert service.results[0].context.trace_id == "t1"

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
        assert logged[0].has_tag("assertion-failed")

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
            (lambda: ConsistentCallError("breaker", degraded=True, breaker_open=True), (False, True)),
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
        service.trigger_from_timer(TimerFiring("w", time=0.0, cause="timeout"), ["unreadable"])
        on_demand = engine.run(
            until=engine.process(service.evaluate_on_demand("unreadable", {}))
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
        assert [r.assertion_id for r in service.failures()] == ["b"]


class TestSpecLanguage:
    def test_count_spec(self):
        assertion, params = parse_assertion_spec(
            "asg {asg_name} has {desired_capacity} running instances"
        )
        assert isinstance(assertion, AsgInstanceCountAssertion)
        assert params == {}

    def test_count_spec_with_literals(self):
        assertion, params = parse_assertion_spec("asg asg-dsn has 4 running instances")
        assert params == {"asg_name": "asg-dsn", "desired_capacity": "4"}

    def test_instance_spec(self):
        assertion, params = parse_assertion_spec("instance $instanceid matches target config")
        assert isinstance(assertion, InstanceVersionAssertion)
        assert params == {}  # runtime field reference contributes nothing

    def test_config_spec(self):
        assertion, params = parse_assertion_spec("asg {asg_name} uses correct security_group")
        assert isinstance(assertion, AsgConfigAssertion)
        assert params["field"] == "security_group"

    def test_exists_spec(self):
        assertion, params = parse_assertion_spec("resource ami ami-42 exists")
        assert isinstance(assertion, ResourceExistsAssertion)
        assert assertion.kind == "ami"
        assert params == {"identifier": "ami-42"}

    def test_elb_specs(self):
        assertion, params = parse_assertion_spec("elb {elb_name} serves at least {min_in_service} instances")
        assert isinstance(assertion, ElbRegistrationAssertion)
        assertion, _params = parse_assertion_spec("elb elb-dsn is active")
        assert isinstance(assertion, ElbRegistrationAssertion)

    def test_case_and_whitespace_insensitive(self):
        assertion, _ = parse_assertion_spec("  ASG   asg-x  HAS 4 running INSTANCES ")
        assert isinstance(assertion, AsgInstanceCountAssertion)

    def test_unknown_spec_lists_supported_forms(self):
        with pytest.raises(AssertionSpecError, match="supported forms"):
            parse_assertion_spec("the moon is full")

    def test_empty_spec_rejected(self):
        with pytest.raises(AssertionSpecError):
            parse_assertion_spec("   ")

    def test_parsed_assertion_is_runnable(self, provisioned_cloud):
        """End-to-end: a spec-built assertion evaluates on the cloud."""
        cloud = provisioned_cloud
        assertion, params = parse_assertion_spec("asg asg-dsn has 4 running instances")
        env = AssertionEnvironment(
            engine=cloud.engine,
            client=ConsistentApiClient(
                cloud.engine, cloud.api("pod"), latency=ConstantLatency(0.05)
            ),
            config={},
        )
        result = cloud.engine.run(
            until=cloud.engine.process(assertion.evaluate(env, params))
        )
        assert result.passed


class TestSpecConfigAliases:
    def test_config_reference_resolves_via_alias(self, provisioned_cloud):
        """`resource ami {some_config_key} exists` resolves the identifier
        from that configuration key at evaluation time."""
        from repro.assertions.base import AssertionEnvironment
        from repro.assertions.consistent_api import ConsistentApiClient
        from repro.sim.latency import ConstantLatency

        cloud = provisioned_cloud
        assertion, params = parse_assertion_spec("resource ami {golden_image} exists")
        assert params == {"identifier__from": "golden_image"}
        env = AssertionEnvironment(
            engine=cloud.engine,
            client=ConsistentApiClient(
                cloud.engine, cloud.api("spec"), latency=ConstantLatency(0.01)
            ),
            config={"golden_image": cloud.ami_v1},
        )
        result = cloud.engine.run(until=cloud.engine.process(assertion.evaluate(env, params)))
        assert result.passed
        # A dangling alias fails cleanly.
        env.config.pop("golden_image")
        result = cloud.engine.run(until=cloud.engine.process(assertion.evaluate(env, params)))
        assert result.failed
