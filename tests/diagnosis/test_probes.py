"""Tests for the custom diagnostic probes against the simulated cloud.

A probe *observes*: ``(True, evidence)`` / ``(False, evidence)`` when the
condition it looks for is / is not there, ``(None, evidence)`` when it
could not look.  What an observation means is the fault tree's business
(tests/diagnosis/test_engine.py).
"""

import dataclasses
import random

import pytest

from repro.assertions.base import AssertionEnvironment
from repro.assertions.consistent_api import ConsistentApiClient, ConsistentCallError
from repro.assertions.evaluation import AssertionEvaluationService
from repro.assertions.library import standard_rolling_upgrade_assertions
from repro.cloud.errors import ResourceNotFound, ServiceUnavailable
from repro.diagnosis.engine import DiagnosisEngine
from repro.diagnosis.tests import build_standard_probes
from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.library import build_standard_fault_trees
from repro.faulttree.tree import DiagnosticTest, FaultTree, node
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


# -- what makes each probe's condition true on the provisioned cloud -----------


def launches_fail(cloud):
    cloud.injector.make_ami_unavailable(cloud.ami_v1)
    cloud.api("ops").set_desired_capacity("asg-dsn", 5)
    cloud.engine.run(until=cloud.engine.now + 30)


def limit_hit(cloud):
    cloud.state.limits.max_instances = 4
    cloud.api("ops").set_desired_capacity("asg-dsn", 6)
    cloud.engine.run(until=cloud.engine.now + 30)


def scale_in(cloud):
    cloud.api("ops").set_desired_capacity("asg-dsn", 3)
    cloud.engine.run(until=cloud.engine.now + 30)


def external_termination(cloud):
    return cloud.injector.terminate_random_instance("asg-dsn", random.Random(3))


def attributed_termination(cloud):
    victim = cloud.state.running_instances("asg-dsn")[0]
    cloud.api("mystery-team").terminate_instance(victim.instance_id)
    cloud.engine.run(until=cloud.engine.now + 1000)  # past max delivery delay


def lc_flap_seen_by_monitor(cloud):
    record = cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
    cloud.engine.run(until=cloud.engine.now + 60)  # monitor crawls the change
    cloud.injector.revert(record)
    cloud.engine.run(until=cloud.engine.now + 60)  # ... and the revert


def concurrent_lc_write(cloud):
    cloud.engine.run(until=cloud.engine.now + 5)  # injection strictly after `since`
    cloud.injector.change_lc_ami("lc-v1", "ami-rogue")


def instance_unhealthy(cloud):
    cloud.controller.stop()
    instance_id = cloud.state.running_instances("asg-dsn")[0].instance_id
    cloud.state.write("instance", instance_id, cloud.engine.now, healthy=False)


#: probe -> (params, what makes the condition true, the context to take
#: away — a param, or a part of the environment — so it cannot look).
CONTRACT = {
    "scaling-activities-failing": ({"asg_name": "asg-dsn"}, launches_fail, "asg_name"),
    "limit-exceeded-activity": ({"asg_name": "asg-dsn"}, limit_hit, "asg_name"),
    "scale-in-occurred": ({"asg_name": "asg-dsn"}, scale_in, "asg_name"),
    "external-termination-occurred": ({"asg_name": "asg-dsn"}, external_termination, "asg_name"),
    "cloudtrail-attribution": ({"asg_name": "asg-dsn"}, attributed_termination, "env.trail"),
    "lc-config-flapped": ({"lc_name": "lc-v1"}, lc_flap_seen_by_monitor, "lc_name"),
    "concurrent-lc-update": ({"asg_name": "asg-dsn"}, concurrent_lc_write, "asg_name"),
    "instances-out-of-service": ({"elb_name": "elb-dsn"}, instance_unhealthy, "elb_name"),
}

#: The probes that call the cloud API (the rest read the monitor, the
#: configuration repository or CloudTrail, which cannot fail that way).
API_PROBES = sorted(
    set(CONTRACT) - {"cloudtrail-attribution", "lc-config-flapped", "concurrent-lc-update"}
)


class TestObservationContract:
    def test_table_covers_every_probe(self, probes):
        assert set(CONTRACT) == set(probes.names())

    @pytest.mark.parametrize("name", sorted(CONTRACT))
    def test_observed_not_observed_and_could_not_look(
        self, name, env, probes, provisioned_cloud
    ):
        params, make_true, taken_away = CONTRACT[name]
        params = {**params, "since": provisioned_cloud.engine.now}

        observed, _ = run_probe(env, probes, name, **params)
        assert observed is False

        if taken_away.startswith("env."):
            blind = dataclasses.replace(env, **{taken_away[4:]: None})
            observed, evidence = run_probe(blind, probes, name, **params)
        else:
            weak = {k: v for k, v in params.items() if k != taken_away}
            observed, evidence = run_probe(env, probes, name, **weak)
        assert observed is None
        assert evidence["reason"]

        make_true(provisioned_cloud)
        observed, _ = run_probe(env, probes, name, **params)
        assert observed is True

    @pytest.mark.parametrize("name", API_PROBES)
    @pytest.mark.parametrize(
        "error, degraded",
        [
            (ResourceNotFound("no such group"), False),
            (ConsistentCallError("retries exhausted"), False),
            (ServiceUnavailable("chaos: temporarily unavailable"), True),
            (ConsistentCallError("breaker open", degraded=True), True),
        ],
        ids=["not-found", "retries-exhausted", "chaos-unavailable", "chaos-breaker"],
    )
    def test_api_failure_is_could_not_look(self, name, error, degraded, env, probes):
        """Inconclusive, never a crashed walk — and flagged degraded only
        when the API plane (chaos), not the resource, is to blame."""
        if isinstance(error, ServiceUnavailable):
            error.chaos = True  # as ChaosApiProxy tags what it injects

        class FailingClient:
            def call(self, method, *args, **kwargs):
                raise error
                yield

        env.client = FailingClient()
        trees = FaultTreeRegistry()
        test = DiagnosticTest("custom", name, params=CONTRACT[name][0])
        trees.register(FaultTree("t", "", root=node("n", "", test=test)))
        diag = DiagnosisEngine(env.engine, trees, AssertionEvaluationService(env), probes)
        diag.diagnose(["t"])
        env.engine.run(until=env.engine.now + 60)
        (execution,) = diag.completed[0].tests
        assert execution.verdict == "inconclusive"
        assert execution.degraded is degraded
        assert execution.evidence["error"] == str(error)
        assert diag.completed[0].no_root_cause


class TestRegistry:
    def test_all_tree_probes_registered(self, probes):
        """Wiring is complete in both directions: every test on a standard
        tree resolves — an assertion in the standard library, or a probe
        whose ``requires`` the node's params supply — and every registered
        probe is walked by some tree."""
        assertions = standard_rolling_upgrade_assertions()
        trees = build_standard_fault_trees()
        walked = set()
        for tree_id in trees.tree_ids():
            for n in trees.get(tree_id).root.iter_nodes():
                if n.test is None:
                    continue
                where = f"{tree_id}:{n.node_id}"
                assert n.test.kind in ("assertion", "custom"), where
                if n.test.kind == "assertion":
                    assert n.test.name in assertions, where
                else:
                    _, requires = probes.get(n.test.name)  # KeyError: unknown probe
                    assert set(requires) <= set(n.test.params), where
                    walked.add(n.test.name)
        assert walked == set(probes.names())

    def test_duplicate_registration_rejected(self, probes):
        with pytest.raises(ValueError):
            probes.register("scale-in-occurred", lambda e, p: None)

    def test_unknown_probe_raises(self, probes, env):
        """Looking a probe up by a wrong name is an error; *running* one —
        what a walk over a mis-wired tree does — is "could not look"."""
        with pytest.raises(KeyError):
            probes.get("ghost")
        observed, evidence = run_probe(env, probes, "ghost")
        assert observed is None
        assert evidence == {"reason": "unknown probe ghost"}


class TestActivityProbes:
    def test_failing_launches_confirmed(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        launches_fail(cloud)
        observed, evidence = run_probe(
            env, probes, "scaling-activities-failing", asg_name="asg-dsn", since=since
        )
        assert observed is True
        assert "InvalidAMIID.NotFound" in evidence["error_codes"]

    def test_healthy_asg_excluded(self, env, probes):
        observed, evidence = run_probe(
            env, probes, "scaling-activities-failing", asg_name="asg-dsn", since=200.0
        )
        assert observed is False
        assert evidence == {"failed_activities": 0}

    def test_unresolved_asg_inconclusive(self, env, probes):
        """No ASG name in the context: the probe is not run.  (A ``$var``
        left unresolved never reaches a probe — the engine answers that.)"""
        calls_before = len(env.client.api.calls)
        observed, evidence = run_probe(env, probes, "scaling-activities-failing")
        assert observed is None
        assert evidence == {"reason": "no asg_name in context"}
        observed, _ = run_probe(env, probes, "scaling-activities-failing", asg_name="")
        assert observed is None
        assert len(env.client.api.calls) == calls_before

    def test_scale_in_detected(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        scale_in(cloud)
        observed, evidence = run_probe(
            env, probes, "scale-in-occurred", asg_name="asg-dsn", since=since
        )
        assert observed is True
        assert len(evidence["terminated"]) == 1

    def test_limit_exceeded_detected(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        limit_hit(cloud)
        observed, evidence = run_probe(
            env, probes, "limit-exceeded-activity", asg_name="asg-dsn", since=since
        )
        assert observed is True
        assert evidence["occurrences"] >= 1


class TestTerminationProbes:
    def test_external_termination_confirmed(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        victim = external_termination(cloud)
        observed, evidence = run_probe(
            env, probes, "external-termination-occurred", asg_name="asg-dsn", since=since
        )
        assert observed is True
        assert victim in evidence["instances"]

    def test_scale_in_terminations_are_explained(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        scale_in(cloud)
        observed, _ = run_probe(
            env, probes, "external-termination-occurred", asg_name="asg-dsn", since=since
        )
        assert observed is False

    def test_operation_terminations_are_explained(self, env, probes, provisioned_cloud):
        """The operation's own TerminateInstances calls, read from its audit
        records, explain the terminations they caused."""
        cloud = provisioned_cloud
        since = cloud.engine.now
        victim = cloud.state.running_instances("asg-dsn")[0].instance_id
        cloud.api("asgard").terminate_instance(victim)
        assert cloud.state.get("instance", victim).terminate_time >= since
        observed, _ = run_probe(
            env, probes, "external-termination-occurred", asg_name="asg-dsn", since=since
        )
        assert observed is False

    def test_cloudtrail_attribution_inconclusive_online(self, env, probes, provisioned_cloud):
        """CloudTrail delivery delay makes online attribution fail — the
        paper's 'cannot determine why' case.  The probe only reports that
        no record is visible; that this is *inconclusive* rather than
        "nobody did it" is declared on the tree's node."""
        cloud = provisioned_cloud
        since = cloud.engine.now
        victim = cloud.state.running_instances("asg-dsn")[0]
        cloud.api("mystery-team").terminate_instance(victim.instance_id)
        observed, evidence = run_probe(
            env, probes, "cloudtrail-attribution", asg_name="asg-dsn", since=since
        )
        assert observed is False
        assert evidence["undelivered"] >= 1
        for tree_id in ("asg-instance-count", "elb-registration", "process-deviation"):
            author = build_standard_fault_trees().get(tree_id).find("termination-author")
            assert author.test.name == "cloudtrail-attribution"
            assert author.test.when_not_observed == "inconclusive"

    def test_cloudtrail_attribution_works_offline(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        attributed_termination(cloud)
        observed, evidence = run_probe(
            env, probes, "cloudtrail-attribution", asg_name="asg-dsn", since=since
        )
        assert observed is True
        assert evidence["principals"] == ["mystery-team"]


class TestConfigProbes:
    def test_concurrent_lc_update_confirmed(self, env, probes, provisioned_cloud):
        cloud = provisioned_cloud
        since = cloud.engine.now
        concurrent_lc_write(cloud)
        observed, evidence = run_probe(
            env, probes, "concurrent-lc-update", lc_name="lc-v1", since=since
        )
        assert observed is True
        assert evidence["writes_since_start"] == 1

    def test_untouched_lc_excluded(self, env, probes):
        observed, _ = run_probe(env, probes, "concurrent-lc-update", lc_name="lc-v1", since=0.0)
        assert observed is False

    def test_lc_flap_visible_to_monitor(self, env, probes, provisioned_cloud):
        lc_flap_seen_by_monitor(provisioned_cloud)
        observed, _ = run_probe(env, probes, "lc-config-flapped", lc_name="lc-v1")
        assert observed is True

    def test_lc_flap_faster_than_monitor_missed(self, env, probes, provisioned_cloud):
        """A transient shorter than the crawl interval is invisible —
        reproducing the paper's third wrong-diagnosis class."""
        cloud = provisioned_cloud
        # Take a snapshot now, inject + revert entirely between crawls.
        cloud.monitor.take_snapshot()
        record = cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        cloud.injector.revert(record)
        observed, _ = run_probe(env, probes, "lc-config-flapped", lc_name="lc-v1")
        assert observed is False


class TestHealthProbe:
    def test_all_in_service_excluded(self, env, probes):
        observed, _ = run_probe(env, probes, "instances-out-of-service", elb_name="elb-dsn")
        assert observed is False

    def test_unhealthy_instance_confirmed(self, env, probes, provisioned_cloud):
        instance_unhealthy(provisioned_cloud)
        observed, evidence = run_probe(env, probes, "instances-out-of-service", elb_name="elb-dsn")
        assert observed is True
        assert len(evidence["out_of_service"]) == 1
