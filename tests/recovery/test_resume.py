"""Tests for checkpoint/resume: interrupted operations pick up mid-flight."""

from repro.cloud.api import TimedCloudClient
from repro.logsys.record import LogStream
from repro.operations.base import COMPLETED, FAILED
from repro.operations.bluegreen import (
    BlueGreenCheckpoint,
    BlueGreenOperation,
    BlueGreenParams,
)
from repro.operations.rolling_upgrade import UpgradeCheckpoint
from repro.testbed import build_testbed


def run_to_end(testbed, operation, horizon=2700.0):
    deadline = testbed.engine.now + horizon
    while testbed.engine.now < deadline:
        if operation.status in (COMPLETED, FAILED):
            break
        testbed.engine.run(until=min(testbed.engine.now + 10.0, deadline))
    return operation


class TestRollingUpgradeResume:
    def test_resume_completes_after_healing(self):
        """Fault mid-upgrade → failure; heal; resume finishes the fleet."""
        testbed = build_testbed(cluster_size=4, seed=211)

        def inject():
            yield testbed.engine.timeout(40)
            testbed.cloud.injector.make_key_pair_unavailable("key-prod")

        testbed.engine.process(inject())
        operation = testbed.run_upgrade()
        assert operation.status == FAILED
        ckpt = operation.checkpoint
        assert isinstance(ckpt, UpgradeCheckpoint)
        assert ckpt.attempts == 1
        assert ckpt.lc_ready  # the LC step finished before the fault

        # Heal, then resume from the batch checkpoint.
        testbed.cloud.api("operator").create_key_pair("key-prod")
        resumed = testbed.resume_upgrade(ckpt, trace_id="resume-1")
        assert resumed.status == COMPLETED
        assert ckpt.attempts == 2
        assert testbed.resumed == [resumed]

        # The whole active fleet now matches the target configuration.
        config = testbed.pod_config
        active = [
            i for i in testbed.cloud.state.instances.values()
            if i.asg_name == config.asg_name and i.state.is_active()
        ]
        assert len(active) == config.desired_capacity
        assert all(i.image_id == config.target.image_id for i in active)

    def test_resume_skips_already_replaced_instances(self):
        """Remaining work is re-derived from cloud state: instances the
        first attempt already replaced are not replaced twice."""
        testbed = build_testbed(cluster_size=4, seed=223)
        failer = {"armed": False}

        def inject():
            # Let at least one batch finish, then break the key pair.
            while True:
                ckpt = getattr(testbed.upgrade, "checkpoint", None)
                if ckpt is not None and ckpt.batches_done >= 1:
                    testbed.cloud.injector.make_key_pair_unavailable("key-prod")
                    failer["armed"] = True
                    return
                yield testbed.engine.timeout(5)

        testbed.engine.process(inject())
        operation = testbed.run_upgrade()
        ckpt = operation.checkpoint
        if not failer["armed"] or operation.status != FAILED:
            # Timing may let the upgrade win the race; the scenario only
            # exists when the fault landed mid-flight.
            return
        replaced_first = list(ckpt.replaced)
        assert ckpt.batches_done >= 1 and replaced_first

        testbed.cloud.api("operator").create_key_pair("key-prod")
        resumed = testbed.resume_upgrade(ckpt, trace_id="resume-2")
        assert resumed.status == COMPLETED
        # The resume's sort step filtered to config-mismatched instances
        # only, so nothing from the first attempt was re-terminated.
        assert not set(replaced_first) & set(ckpt.replaced[len(replaced_first):])

    def test_resumed_trace_is_conformant(self):
        """POD replays the resumed trace as its own process instance and
        finds nothing wrong with it."""
        testbed = build_testbed(cluster_size=4, seed=227)

        def inject():
            yield testbed.engine.timeout(40)
            testbed.cloud.injector.make_key_pair_unavailable("key-prod")

        testbed.engine.process(inject())
        operation = testbed.run_upgrade()
        assert operation.status == FAILED
        detections_before = len(testbed.pod.detections)

        testbed.cloud.api("operator").create_key_pair("key-prod")
        resumed = testbed.resume_upgrade(operation.checkpoint, trace_id="resume-3")
        assert resumed.status == COMPLETED
        new = [d for d in testbed.pod.detections[detections_before:]]
        assert new == [], [d.reason for d in new]


class TestBlueGreenResume:
    def test_checkpoint_marks_phases_once(self):
        ckpt = BlueGreenCheckpoint()
        ckpt.mark("provision")
        ckpt.mark("provision")
        assert ckpt.phases_done == ["provision"]

    def test_resume_skips_green_provisioning(self):
        """A resumed blue/green attempt must not create the green stack a
        second time (create calls are not idempotent)."""
        testbed = build_testbed(cluster_size=4, seed=233)
        cloud = testbed.cloud
        params = BlueGreenParams(
            blue_asg="asg-dsn",
            green_asg="asg-dsn-green",
            elb_name="elb-dsn",
            lc_name="lc-green-v2",
            target=testbed.pod_config.target,
            capacity=4,
        )
        client = TimedCloudClient(cloud.engine, cloud.api("deployer"))

        first = BlueGreenOperation(
            cloud.engine, client, LogStream("bg-1.log"), params, "bg-1"
        )
        first.start()
        run_to_end(testbed, first)
        assert first.status == COMPLETED
        ckpt = first.checkpoint
        assert ckpt.provisioned
        assert ckpt.attempts == 1
        assert "decommission" in ckpt.phases_done

        # Re-running from the checkpoint replays the idempotent phases on
        # the already-provisioned green stack; a fresh create would raise.
        second = BlueGreenOperation(
            cloud.engine, client, LogStream("bg-2.log"), params, "bg-2",
            checkpoint=ckpt,
        )
        assert second.resuming
        second.start()
        run_to_end(testbed, second)
        assert second.status == COMPLETED
        assert ckpt.attempts == 2
