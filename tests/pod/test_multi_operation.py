"""Tests for multi-operation visibility: several traces, one service.

The paper's global-visibility claim: POD-Diagnosis aggregates
process-annotated logs from different operations in one central
repository, unlike per-tool exception handling with only local context.
"""

import dataclasses

import pytest

from repro.logsys.record import LogStream
from repro.operations.rolling_upgrade import RollingUpgradeOperation, RollingUpgradeParams
from repro.testbed import build_testbed


@pytest.fixture(scope="module")
def dual_upgrade():
    """Team A upgrades to v2; team B pushes v3 onto the same ASG later."""
    testbed = build_testbed(cluster_size=4, seed=121)
    cloud = testbed.cloud
    ami_v3 = cloud.api("team-b").register_image("app", "v3")["ImageId"]

    stream_b = LogStream("asgard-team-b.log")

    def team_b():
        yield testbed.engine.timeout(150)
        params = RollingUpgradeParams(
            asg_name="asg-dsn",
            elb_name="elb-dsn",
            lc_name="lc-app-v3",
            target=dataclasses.replace(testbed.pod_config.target, image_id=ami_v3),
        )
        client = cloud.client("asgard-team-b", latency_seed_offset=91)
        operation_b = RollingUpgradeOperation(testbed.engine, client, stream_b, params, "upgrade-b")
        testbed.pod.watch(stream_b, "upgrade-b")
        operation_b.start()

    testbed.engine.process(team_b())
    operation_a = testbed.run_upgrade(trace_id="upgrade-a")
    return testbed, operation_a, ami_v3


class TestGlobalVisibility:
    def test_both_traces_in_central_storage(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        traces = set(testbed.pod.storage.traces())
        assert {"upgrade-a", "upgrade-b"} <= traces

    def test_conformance_tracks_each_instance_separately(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        assert "upgrade-a" in testbed.pod.conformance.instances
        assert "upgrade-b" in testbed.pod.conformance.instances
        # Team B's own trace is well-formed even though it conflicts with A.
        assert testbed.pod.conformance.fitness_of("upgrade-b") >= 0.9

    def test_mixed_version_detected(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        details = {d.detail for d in testbed.pod.detections}
        assert details & {
            "new-instance-correct-version",
            "asg-uses-correct-config",
            "asg-has-n-new-version-instances",
        }

    def test_diagnosis_points_at_concurrent_change(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        causes = {
            c.node_id
            for r in testbed.pod.reports
            for c in r.root_causes
            if c.status == "confirmed"
        }
        assert causes & {"wrong-ami", "lc-wrong-ami", "concurrent-upgrade"}

    def test_fleet_ends_mixed_relative_to_team_a(self, dual_upgrade):
        testbed, operation_a, ami_v3 = dual_upgrade
        testbed.engine.run(until=testbed.engine.now + 1500)  # let team B finish
        versions = {i.image_id for i in testbed.cloud.state.running_instances("asg-dsn")}
        assert ami_v3 in versions

    def test_watchdogs_tracked_per_trace(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        # Each watched trace armed (and later stopped) its own timer rule
        # instance; none leak after the runs end.
        testbed.pod.timers.stop_all()
        assert testbed.pod.timers.active == {}
