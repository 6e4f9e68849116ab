"""Tests for multi-operation visibility: several traces, one service.

The paper's global-visibility claim: POD-Diagnosis aggregates
process-annotated logs from different operations in one central
repository, unlike per-tool exception handling with only local context.
Each trace is still judged against its own operation's declaration.
"""

import dataclasses

import pytest

from repro.logsys.record import LogStream
from repro.operations.rolling_upgrade import RollingUpgradeOperation
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
        params = dataclasses.replace(
            testbed.params,
            lc_name="lc-app-v3",
            target=dataclasses.replace(testbed.params.target, image_id=ami_v3),
        )
        client = cloud.client("asgard-team-b", latency_seed_offset=91)
        operation_b = RollingUpgradeOperation(testbed.engine, client, stream_b, params, "upgrade-b")
        testbed.pod.watch(stream_b, "upgrade-b", params, since=testbed.engine.now)
        operation_b.start()

    testbed.engine.process(team_b())
    operation_a = testbed.run_upgrade(trace_id="upgrade-a")
    return testbed, operation_a, ami_v3


class TestGlobalVisibility:
    def test_both_traces_in_central_storage(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        assert testbed.pod.storage.by_trace("upgrade-a")
        assert testbed.pod.storage.by_trace("upgrade-b")

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
        assert causes & {"wrong-ami", "concurrent-upgrade"}

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


def confirmed_causes(testbed, trace_id):
    return {
        c.node_id
        for r in testbed.pod.reports
        if r.trace_id == trace_id
        for c in r.root_causes
        if c.status == "confirmed"
    }


def trees_confirming(testbed, trace_id, cause):
    """The trees of ``trace_id``'s reports that confirmed ``cause``.  A
    report over several trees counts only if it names the cause confirmed
    once per tree."""
    trees = set()
    for r in testbed.pod.reports:
        named = sum(c.node_id == cause and c.status == "confirmed" for c in r.root_causes)
        if r.trace_id == trace_id and named and named >= len(r.tree_ids):
            trees.update(r.tree_ids)
    return trees


class TestEachTraceJudgedAgainstItsOwnTarget:
    """Team B's correct v3 upgrade is not judged against team A's v2 target."""

    def test_team_b_raises_no_wrong_version(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        details = {d.detail for d in testbed.pod.detections if d.trace_id == "upgrade-b"}
        assert not details & {"new-instance-correct-version", "asg-uses-correct-config"}
        assert "wrong-ami" not in confirmed_causes(testbed, "upgrade-b")

    def test_team_a_still_sees_the_mixed_version(self, dual_upgrade):
        testbed, _op, _ = dual_upgrade
        details = {d.detail for d in testbed.pod.detections if d.trace_id == "upgrade-a"}
        assert {"new-instance-correct-version", "asg-uses-correct-config"} <= details
        # Both trees holding the wrong-config leaves confirm the wrong AMI.
        assert {"asg-wrong-version", "asg-instance-count"} <= trees_confirming(
            testbed, "upgrade-a", "wrong-ami"
        )

    def test_each_trace_holds_its_own_repository(self, dual_upgrade):
        testbed, _op, ami_v3 = dual_upgrade
        envs = testbed.pod.assertions.envs
        assert envs["upgrade-a"].config["expected_image_id"] == testbed.stack.ami_v2
        assert envs["upgrade-b"].config["expected_image_id"] == ami_v3
        assert envs["upgrade-b"].config["since"] == envs["upgrade-a"].config["since"] + 150
