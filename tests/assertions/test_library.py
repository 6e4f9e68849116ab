"""Tests for the pre-defined assertion library against the simulated cloud."""

import pytest

from repro.assertions.base import AssertionEnvironment
from repro.assertions.consistent_api import ConsistentApiClient
from repro.assertions.evaluation import AssertionEvaluationService
from repro.assertions.library import (
    AsgConfigAssertion,
    AsgInstanceCountAssertion,
    ElbRegistrationAssertion,
    InstanceVersionAssertion,
    ResourceExistsAssertion,
    standard_rolling_upgrade_assertions,
)
from repro.cloud.errors import ServiceUnavailable
from repro.operations.target import TargetConfig
from repro.pod.config import PodConfig
from repro.sim.latency import ConstantLatency


@pytest.fixture
def env(provisioned_cloud):
    cloud = provisioned_cloud
    client = ConsistentApiClient(
        cloud.engine, cloud.api("pod"), latency=ConstantLatency(0.05)
    )
    return AssertionEnvironment(
        engine=cloud.engine,
        client=client,
        monitor=cloud.monitor,
        config=PodConfig(
            asg_name="asg-dsn",
            elb_name="elb-dsn",
            desired_capacity=4,
            target=TargetConfig(
                image_id=cloud.ami_v1,
                key_name="key-prod",
                instance_type="m1.small",
                security_groups=["sg-web"],
            ),
            lc_name="lc-v1",
        ).as_repository(),
    )


def run(env, assertion, params=None):
    """Evaluate through the service: an assertion answers, and a read it
    could not make (timeout, not-found on a describe that is not its
    question) becomes a failed result there, not in ``evaluate``."""
    service = AssertionEvaluationService(env)
    service.register(assertion)
    engine = env.engine
    return engine.run(
        until=engine.process(service.evaluate_on_demand(assertion.assertion_id, params or {}))
    )


class TestCountAssertion:
    def test_passes_at_desired_capacity(self, env):
        result = run(env, AsgInstanceCountAssertion(convergence_timeout=5))
        assert result.passed
        assert len(result.observed["instances"]) == 4

    def test_fails_when_fleet_short(self, env, provisioned_cloud):
        provisioned_cloud.controller.stop()
        api = provisioned_cloud.api("ops")
        victim = provisioned_cloud.state.running_instances("asg-dsn")[0]
        api.terminate_instance_in_auto_scaling_group(victim.instance_id)
        result = run(env, AsgInstanceCountAssertion(convergence_timeout=3))
        assert result.failed
        assert result.timed_out

    def test_pending_counts_in_active_mode(self, env, provisioned_cloud):
        instance = provisioned_cloud.state.running_instances("asg-dsn")[0]
        from repro.cloud.resources import InstanceState

        provisioned_cloud.state.write(
            "instance", instance.instance_id, provisioned_cloud.engine.now,
            state=InstanceState.PENDING,
        )
        result = run(env, AsgInstanceCountAssertion(convergence_timeout=2))
        assert result.passed

    def test_pending_fails_strict_running_mode(self, env, provisioned_cloud):
        instance = provisioned_cloud.state.running_instances("asg-dsn")[0]
        from repro.cloud.resources import InstanceState

        provisioned_cloud.state.write(
            "instance", instance.instance_id, provisioned_cloud.engine.now,
            state=InstanceState.PENDING,
        )
        result = run(env, AsgInstanceCountAssertion(convergence_timeout=2, mode="running"))
        assert result.failed

    def test_version_mode_counts_target_ami_only(self, env, provisioned_cloud):
        result = run(
            env, AsgInstanceCountAssertion(convergence_timeout=2, mode="version")
        )
        assert result.passed  # all instances run ami_v1, the expected image
        env.config["expected_image_id"] = provisioned_cloud.ami_v2
        result = run(env, AsgInstanceCountAssertion(convergence_timeout=2, mode="version"))
        assert result.failed

    def test_missing_parameters_fail(self, env):
        env.config.pop("asg_name")
        result = run(env, AsgInstanceCountAssertion(convergence_timeout=1))
        assert result.failed
        assert "missing" in result.message

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            AsgInstanceCountAssertion(mode="bogus")

    def test_expected_read_at_evaluation_time(self, env):
        """The should-be number resolves when the evaluation runs — the
        paper's race-condition FP class depends on this."""
        env.config["desired_capacity"] = 9
        result = run(env, AsgInstanceCountAssertion(convergence_timeout=1))
        assert result.failed


class TestInstanceVersionAssertion:
    def test_passes_for_conforming_instance(self, env, provisioned_cloud):
        instance = provisioned_cloud.state.running_instances("asg-dsn")[0]
        result = run(env, InstanceVersionAssertion(), {"instanceid": instance.instance_id})
        assert result.passed

    def test_detects_wrong_ami(self, env, provisioned_cloud):
        instance = provisioned_cloud.state.running_instances("asg-dsn")[0]
        provisioned_cloud.state.write(
            "instance", instance.instance_id, provisioned_cloud.engine.now, image_id="ami-rogue"
        )
        result = run(env, InstanceVersionAssertion(), {"instanceid": instance.instance_id})
        assert result.failed
        assert "AMI" in result.message

    def test_detects_wrong_security_group(self, env, provisioned_cloud):
        instance = provisioned_cloud.state.running_instances("asg-dsn")[0]
        provisioned_cloud.state.write(
            "instance", instance.instance_id, provisioned_cloud.engine.now,
            security_groups=("sg-rogue",),
        )
        result = run(env, InstanceVersionAssertion(), {"instanceid": instance.instance_id})
        assert result.failed
        assert "security groups" in result.message

    def test_no_instance_id_fails(self, env):
        result = run(env, InstanceVersionAssertion(), {})
        assert result.failed
        assert "no instance id" in result.message

    def test_unknown_instance_fails(self, env):
        result = run(env, InstanceVersionAssertion(), {"instanceid": "i-ghost"})
        assert result.failed


class TestAsgConfigAssertion:
    def test_passes_on_clean_config(self, env):
        result = run(env, AsgConfigAssertion())
        assert result.passed
        assert "correct" in result.message

    def test_detects_single_field(self, env, provisioned_cloud):
        provisioned_cloud.injector.change_lc_key_pair("lc-v1", "key-rogue")
        result = run(env, AsgConfigAssertion(), {"field": "key_pair"})
        assert result.failed
        assert "key pair" in result.message
        # Other fields still verify clean.
        result = run(env, AsgConfigAssertion(), {"field": "ami"})
        assert result.passed

    def test_detects_any_field_without_filter(self, env, provisioned_cloud):
        provisioned_cloud.injector.change_lc_instance_type("lc-v1", "m9.huge")
        result = run(env, AsgConfigAssertion())
        assert result.failed

    def test_missing_asg_fails(self, env):
        env.config["asg_name"] = "asg-ghost"
        result = run(env, AsgConfigAssertion())
        assert result.failed


class TestElbAssertion:
    def test_passes_with_full_fleet(self, env):
        result = run(env, ElbRegistrationAssertion(), {"convergence_timeout": 3})
        assert result.passed
        assert len(result.observed["in_service"]) >= 3

    def test_fails_when_elb_unavailable(self, env, provisioned_cloud):
        provisioned_cloud.injector.make_elb_unavailable("elb-dsn")
        result = run(env, ElbRegistrationAssertion(), {"convergence_timeout": 2})
        assert result.failed

    def test_fails_when_too_few_in_service(self, env, provisioned_cloud):
        provisioned_cloud.controller.stop()
        elb = provisioned_cloud.state.get("load_balancer", "elb-dsn")
        provisioned_cloud.state.write(
            "load_balancer", "elb-dsn", provisioned_cloud.engine.now,
            registered_instances=elb.registered_instances[:1],
        )
        result = run(env, ElbRegistrationAssertion(), {"convergence_timeout": 2})
        assert result.failed
        assert result.timed_out

    def test_no_min_checks_activity_only(self, env):
        env.config.pop("min_in_service")
        result = run(env, ElbRegistrationAssertion(), {"convergence_timeout": 1})
        assert result.passed


class UnavailableReads:
    """API double: the ELB describes as active, both convergence reads
    (``call_until`` targets) answer ``ServiceUnavailable``."""

    def describe_load_balancer(self, name, consistent=False):
        return {"State": "active"}

    def describe_instance_health(self, name):
        raise ServiceUnavailable(f"load balancer {name!r} is unavailable")

    def describe_instances_in_asg(self, name):
        raise ServiceUnavailable(f"asg {name!r} is unavailable")


class TestCallUntilFailuresCarryTheirRealFlag:
    """``timed_out`` says the deadline passed — not "``call_until`` raised".
    (The deadline side: ``test_fails_when_fleet_short`` and
    ``test_fails_when_too_few_in_service`` above.)"""

    @pytest.mark.parametrize(
        "assertion",
        [
            AsgInstanceCountAssertion(convergence_timeout=30),
            ElbRegistrationAssertion(),
        ],
    )
    def test_exhaustion_and_open_breaker_are_not_timeouts(self, env, assertion):
        # 0.1 s calls give a 5 s call timeout, room for all four backoffs:
        # exhaustion, not deadline.  The breaker opens on the sixth failure,
        # inside the second evaluation, which still runs to exhaustion.
        client = ConsistentApiClient(env.engine, UnavailableReads(), latency=ConstantLatency(0.1))
        env.client = client
        for exhaustions, trips in ((1, 0), (2, 1)):
            exhausted = run(env, assertion)
            assert exhausted.failed and not exhausted.timed_out and not exhausted.degraded
            assert (client.retry_exhaustions, client.timeouts, client.breaker_trips) == (
                exhaustions, 0, trips
            )
        stopped = run(env, assertion)
        assert stopped.failed and not stopped.timed_out and not stopped.degraded
        assert "circuit breaker open" in stopped.message
        # Failed fast: the open method was not tried again.
        assert (client.breaker_fast_fails, client.retries_made) == (1, 8)


class TestResourceExistsAssertion:
    def test_existing_resource_passes(self, env, provisioned_cloud):
        result = run(env, ResourceExistsAssertion("ami"), {"identifier": provisioned_cloud.ami_v1})
        assert result.passed

    def test_missing_resource_fails(self, env):
        result = run(env, ResourceExistsAssertion("key_pair"), {"identifier": "key-ghost"})
        assert result.failed

    def test_unavailable_elb_fails_despite_existing(self, env, provisioned_cloud):
        provisioned_cloud.injector.make_elb_unavailable("elb-dsn")
        result = run(env, ResourceExistsAssertion("load_balancer"), {"identifier": "elb-dsn"})
        assert result.failed

    def test_identifier_falls_back_to_config(self, env):
        result = run(env, ResourceExistsAssertion("key_pair"), {})
        assert result.passed  # key-prod from config

    def test_security_group_fallback_uses_first_group(self, env):
        result = run(env, ResourceExistsAssertion("security_group"), {})
        assert result.passed

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ResourceExistsAssertion("bucket")


class TestStandardRegistry:
    def test_contains_all_expected_ids(self):
        registry = standard_rolling_upgrade_assertions()
        assert {
            "asg-has-n-instances",
            "asg-has-n-new-version-instances",
            "asg-has-n-running-instances",
            "new-instance-correct-version",
            "asg-uses-correct-config",
            "elb-has-registered-instances",
            "ami-exists",
            "key-pair-exists",
            "security-group-exists",
            "load-balancer-exists",
            "launch-configuration-exists",
        } <= set(registry)

    def test_ids_match_instances(self):
        registry = standard_rolling_upgrade_assertions()
        for assertion_id, assertion in registry.items():
            assert assertion.assertion_id == assertion_id
