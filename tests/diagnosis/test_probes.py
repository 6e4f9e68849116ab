"""Tests for the custom diagnostic probes against the simulated cloud."""

import pytest

from repro.assertions.base import AssertionEnvironment
from repro.assertions.consistent_api import ConsistentApiClient
from repro.diagnosis.tests import CustomTestRegistry, build_standard_probes
from repro.sim.latency import ConstantLatency


@pytest.fixture
def env(provisioned_cloud):
    cloud = provisioned_cloud
    environment = AssertionEnvironment(
        engine=cloud.engine,
        client=ConsistentApiClient(cloud.engine, cloud.api("diag"), latency=ConstantLatency(0.05)),
        monitor=cloud.monitor,
        config={},
        state=cloud.state,
        trail=cloud.trail,
        operation_api_calls=cloud.api("asgard").calls,
    )
    return environment


@pytest.fixture
def probes():
    return build_standard_probes()


def run_probe(env, probes, name, **params):
    engine = env.engine
    return engine.run(until=engine.process(probes.run(name, env, params)))


class TestRegistry:
    def test_all_tree_probes_registered(self, probes):
        assert set(probes.names()) == {
            "scaling-activities-failing",
            "limit-exceeded-activity",
            "scale-in-occurred",
            "external-termination-occurred",
            "cloudtrail-attribution",
            "lc-config-flapped",
            "concurrent-lc-update",
            "desired-capacity-mismatch",
            "instances-out-of-service",
        }

    def test_duplicate_registration_rejected(self, probes):
        with pytest.raises(ValueError):
            probes.register("scale-in-occurred", lambda e, p: None)

    def test_unknown_probe_raises(self, probes):
        with pytest.raises(KeyError):
            probes.get("ghost")


class TestActivityProbes:
    def test_failing_launches_confirmed(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        cloud.injector.make_ami_unavailable(cloud.ami_v1)
        cloud.api("ops").set_desired_capacity("asg-dsn", 5)
        cloud.engine.run(until=cloud.engine.now + 30)
        verdict, evidence = run_probe(
            env, probes, "scaling-activities-failing", asg_name="asg-dsn", since=since
        )
        assert verdict == "confirmed"
        assert "InvalidAMIID.NotFound" in evidence["error_codes"]

    def test_healthy_asg_excluded(self, env, probes):
        verdict, _ = run_probe(
            env, probes, "scaling-activities-failing", asg_name="asg-dsn", since=200.0
        )
        assert verdict == "excluded"

    def test_unresolved_asg_inconclusive(self, env, probes):
        verdict, evidence = run_probe(
            env, probes, "scaling-activities-failing", asg_name="$asg_name"
        )
        assert verdict == "inconclusive"

    def test_scale_in_detected(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        cloud.api("ops").set_desired_capacity("asg-dsn", 3)
        cloud.engine.run(until=cloud.engine.now + 30)
        verdict, evidence = run_probe(
            env, probes, "scale-in-occurred", asg_name="asg-dsn", since=since
        )
        assert verdict == "confirmed"
        assert len(evidence["terminated"]) == 1

    def test_limit_exceeded_detected(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        cloud.state.limits.max_instances = 4
        cloud.api("ops").set_desired_capacity("asg-dsn", 6)
        cloud.engine.run(until=cloud.engine.now + 30)
        verdict, _ = run_probe(
            env, probes, "limit-exceeded-activity", asg_name="asg-dsn", since=since
        )
        assert verdict == "confirmed"

    def test_desired_capacity_mismatch(self, env, probes, provisioned_cloud):
        verdict, evidence = run_probe(
            env, probes, "desired-capacity-mismatch", asg_name="asg-dsn", expected=9
        )
        assert verdict == "confirmed"
        assert evidence == {"expected": 9, "actual": 4}
        verdict, _ = run_probe(
            env, probes, "desired-capacity-mismatch", asg_name="asg-dsn", expected=4
        )
        assert verdict == "excluded"


class TestTerminationProbes:
    def test_external_termination_confirmed(self, env, probes, provisioned_cloud):
        import random

        cloud = provisioned_cloud
        since = cloud.engine.now
        victim = cloud.injector.terminate_random_instance("asg-dsn", random.Random(3))
        verdict, evidence = run_probe(
            env, probes, "external-termination-occurred", asg_name="asg-dsn", since=since
        )
        assert verdict == "confirmed"
        assert victim in evidence["instances"]

    def test_scale_in_terminations_are_explained(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        cloud.api("ops").set_desired_capacity("asg-dsn", 3)
        cloud.engine.run(until=cloud.engine.now + 30)
        verdict, _ = run_probe(
            env, probes, "external-termination-occurred", asg_name="asg-dsn", since=since
        )
        assert verdict == "excluded"

    def test_cloudtrail_attribution_inconclusive_online(self, env, probes, provisioned_cloud):
        """CloudTrail delivery delay makes online attribution fail — the
        paper's 'cannot determine why' case."""
        cloud = provisioned_cloud
        since = cloud.engine.now
        victim = cloud.state.running_instances("asg-dsn")[0]
        cloud.api("mystery-team").terminate_instance(victim.instance_id)
        verdict, evidence = run_probe(
            env, probes, "cloudtrail-attribution", asg_name="asg-dsn", since=since
        )
        assert verdict == "inconclusive"
        assert evidence["undelivered"] >= 1

    def test_cloudtrail_attribution_works_offline(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        victim = cloud.state.running_instances("asg-dsn")[0]
        cloud.api("mystery-team").terminate_instance(victim.instance_id)
        cloud.engine.run(until=cloud.engine.now + 1000)  # past max delivery delay
        verdict, evidence = run_probe(
            env, probes, "cloudtrail-attribution", asg_name="asg-dsn", since=since
        )
        assert verdict == "confirmed"
        assert evidence["principals"] == ["mystery-team"]


class TestConfigProbes:
    def test_concurrent_lc_update_confirmed(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        cloud.engine.run(until=cloud.engine.now + 5)  # injection strictly after `since`
        cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        verdict, evidence = run_probe(
            env, probes, "concurrent-lc-update", lc_name="lc-v1", since=since
        )
        assert verdict == "confirmed"
        assert evidence["writes_since_start"] == 1

    def test_untouched_lc_excluded(self, env, probes):
        verdict, _ = run_probe(env, probes, "concurrent-lc-update", lc_name="lc-v1", since=0.0)
        assert verdict == "excluded"

    def test_lc_flap_visible_to_monitor(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        record = cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        cloud.engine.run(until=cloud.engine.now + 60)  # monitor crawls the change
        cloud.injector.revert(record)
        cloud.engine.run(until=cloud.engine.now + 60)  # ... and the revert
        verdict, _ = run_probe(env, probes, "lc-config-flapped", lc_name="lc-v1")
        assert verdict == "confirmed"

    def test_lc_flap_faster_than_monitor_missed(self, env, probes, provisioned_cloud):
        """A transient shorter than the crawl interval is invisible —
        reproducing the paper's third wrong-diagnosis class."""
        cloud = provisioned_cloud
        # Take a snapshot now, inject + revert entirely between crawls.
        cloud.monitor.take_snapshot()
        record = cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        cloud.injector.revert(record)
        verdict, _ = run_probe(env, probes, "lc-config-flapped", lc_name="lc-v1")
        assert verdict == "excluded"


class TestHealthProbe:
    def test_all_in_service_excluded(self, env, probes):
        verdict, _ = run_probe(env, probes, "instances-out-of-service", elb_name="elb-dsn")
        assert verdict == "excluded"

    def test_unhealthy_instance_confirmed(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.controller.stop()
        cloud.state.running_instances("asg-dsn")[0].healthy = False
        verdict, evidence = run_probe(env, probes, "instances-out-of-service", elb_name="elb-dsn")
        assert verdict == "confirmed"
        assert len(evidence["out_of_service"]) == 1
