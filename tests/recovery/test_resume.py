"""Tests for checkpoint/resume: interrupted operations pick up mid-flight."""

from repro.evaluation.faults import FaultPlan, apply_fault, schedule_fault
from repro.operations.base import COMPLETED, FAILED
from repro.operations.rolling_upgrade import UpgradeCheckpoint
from repro.testbed import build_testbed


class TestRollingUpgradeResume:
    def test_resume_completes_after_healing(self):
        """Fault mid-upgrade → failure; heal; resume finishes the fleet."""
        testbed = build_testbed(cluster_size=4, seed=211)
        schedule_fault(testbed, FaultPlan(fault_type="KEYPAIR_UNAVAILABLE", inject_at=40.0))
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
        params = testbed.params
        active = [
            i for i in testbed.cloud.state.instances.values()
            if i.asg_name == params.asg_name and i.state.is_active()
        ]
        assert len(active) == params.desired_capacity
        assert all(i.image_id == params.target.image_id for i in active)

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
                    apply_fault(testbed, "KEYPAIR_UNAVAILABLE")
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
        schedule_fault(testbed, FaultPlan(fault_type="KEYPAIR_UNAVAILABLE", inject_at=40.0))
        operation = testbed.run_upgrade()
        assert operation.status == FAILED
        detections_before = len(testbed.pod.detections)

        testbed.cloud.api("operator").create_key_pair("key-prod")
        resumed = testbed.resume_upgrade(operation.checkpoint, trace_id="resume-3")
        assert resumed.status == COMPLETED
        new = [d for d in testbed.pod.detections[detections_before:]]
        assert new == [], [d.reason for d in new]

