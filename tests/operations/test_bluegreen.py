"""Tests for the blue/green operation and its POD profile.

This is the §III.C generalizability claim under test: a different
sporadic operation, watched by the same POD-Diagnosis machinery and
diagnosed by the same fault trees.
"""

import pytest

from repro.cloud.api import TimedCloudClient
from repro.logsys.record import LogStream
from repro.operations.bluegreen import (
    BG_COMPLETED,
    BG_START,
    BlueGreenOperation,
    BlueGreenParams,
    blue_green_profile,
    build_pattern_library,
    reference_model,
)
from repro.pod.config import PodConfig
from repro.pod.service import PODDiagnosis
from repro.process.compiled import CompiledReplayer
from repro.testbed import build_testbed


def launch_bluegreen(testbed, pod=None, trace_id="bg-1"):
    cloud = testbed.cloud
    params = BlueGreenParams(
        blue_asg="asg-dsn",
        green_asg="asg-dsn-green",
        elb_name="elb-dsn",
        lc_name="lc-green-v2",
        target=testbed.pod_config.target,
        capacity=4,
    )
    stream = LogStream("bluegreen.log")
    if pod is not None:
        pod.watch(stream, trace_id)
    client = TimedCloudClient(cloud.engine, cloud.api("deployer"))
    operation = BlueGreenOperation(cloud.engine, client, stream, params, trace_id)
    operation.start()
    return operation, stream


def green_pod(testbed):
    """POD-Diagnosis configured for the blue/green target state."""
    config = PodConfig(
        asg_name="asg-dsn-green",
        elb_name="elb-dsn",
        desired_capacity=4,
        target=testbed.pod_config.target,
        lc_name="lc-green-v2",
        watchdog_interval=175.0,
        operation_start=testbed.engine.now,
    )
    return PODDiagnosis(testbed.cloud, config, profile=blue_green_profile(), seed=testbed.seed)


class TestProfile:
    def test_profile_is_coherent(self):
        assert blue_green_profile().validate() == []

    def test_rolling_upgrade_profile_is_coherent(self):
        from repro.operations.profile import rolling_upgrade_profile

        assert rolling_upgrade_profile().validate() == []

    def test_model_is_sound(self):
        assert reference_model().validate() == []


class TestHappyPath:
    @pytest.fixture(scope="class")
    def clean_run(self):
        testbed = build_testbed(cluster_size=4, seed=201)
        pod = green_pod(testbed)
        operation, stream = launch_bluegreen(testbed, pod)
        testbed.engine.run(until=testbed.engine.now + 1200)
        pod.timers.stop_all()
        testbed.engine.run(until=testbed.engine.now + 60)
        pod.quiesce()
        return testbed, pod, operation, stream

    def test_deployment_completes(self, clean_run):
        _testbed, _pod, operation, _stream = clean_run
        assert operation.status == "completed"

    def test_green_serves_blue_decommissioned(self, clean_run):
        testbed, _pod, _op, _stream = clean_run
        cloud = testbed.cloud
        green = cloud.state.running_instances("asg-dsn-green")
        assert len(green) == 4
        assert all(i.image_id == testbed.stack.ami_v2 for i in green)
        elb = cloud.state.get("load_balancer", "elb-dsn")
        assert set(elb.registered_instances) == {i.instance_id for i in green}
        testbed.engine.run(until=testbed.engine.now + 120)
        assert cloud.state.running_instances("asg-dsn") == []

    def test_no_detections_on_clean_run(self, clean_run):
        _testbed, pod, _op, _stream = clean_run
        assert pod.detections == []

    def test_trace_conformant_on_bluegreen_model(self, clean_run):
        _testbed, pod, _op, stream = clean_run
        assert pod.conformance.fitness_of("bg-1") == 1.0
        # Cross-check by replaying the raw trace on the reference model.
        library = build_pattern_library()
        instance = CompiledReplayer(reference_model()).instance_for("verify")
        for record in stream.records:
            classification = library.classify(record.message)
            if classification.matched and not classification.pattern.is_error:
                assert instance.replay(classification.activity)
        assert instance.completed

    def test_trace_order_start_to_completed(self, clean_run):
        _testbed, _pod, _op, stream = clean_run
        library = build_pattern_library()
        activities = [
            library.classify(r.message).activity
            for r in stream.records
            if library.classify(r.message).matched
        ]
        assert activities[0] == BG_START
        assert activities[-1] == BG_COMPLETED


class TestFaultedRun:
    def test_sg_unavailable_detected_and_diagnosed(self):
        """The same fault trees diagnose a different operation: deleting
        the security group stalls green provisioning; the watchdog fires;
        the count-tree walk confirms security-group-unavailable."""
        testbed = build_testbed(cluster_size=4, seed=202)
        pod = green_pod(testbed)

        def inject():
            # Delete the SG before the green ASG's first launch attempt
            # (the controller reconciles every 5 s).
            yield testbed.engine.timeout(1)
            testbed.cloud.injector.make_security_group_unavailable("sg-web")

        testbed.engine.process(inject())
        operation, _stream = launch_bluegreen(testbed, pod)
        testbed.engine.run(until=testbed.engine.now + 1000)
        pod.timers.stop_all()
        testbed.engine.run(until=testbed.engine.now + 60)
        pod.quiesce()

        assert pod.detections, "the stalled green provisioning must be detected"
        assert any(d.cause == "timer-timeout" for d in pod.detections)
        causes = {c.node_id for r in pod.reports for c in r.root_causes if c.status == "confirmed"}
        assert "security-group-unavailable" in causes

    def test_wrong_ami_caught_before_traffic_shift(self):
        """A corrupted green LC is caught by the config assertion bound to
        the provision step — before any traffic moves."""
        testbed = build_testbed(cluster_size=4, seed=203)
        pod = green_pod(testbed)
        rogue = testbed.cloud.api("rogue").register_image("rogue", "v9")["ImageId"]

        operation, stream = launch_bluegreen(testbed, pod)

        def corrupt():
            # Corrupt as soon as the green LC exists (before instances boot).
            while not testbed.cloud.state.exists("launch_configuration", "lc-green-v2"):
                yield testbed.engine.timeout(1)
            testbed.cloud.injector.change_lc_ami("lc-green-v2", rogue)

        testbed.engine.process(corrupt())
        testbed.engine.run(until=testbed.engine.now + 1000)
        pod.timers.stop_all()
        testbed.engine.run(until=testbed.engine.now + 60)
        pod.quiesce()

        assert pod.detections
        causes = {c.node_id for r in pod.reports for c in r.root_causes if c.status == "confirmed"}
        assert causes & {"wrong-ami", "lc-wrong-ami"}
