"""Tests for post-mortem diagnosis: a later walk, the flap finder, the
merged timeline."""

import pytest

from repro.cloud.state import CloudState
from repro.diagnosis.offline import transient_changes
from repro.operations.interference import InterferencePlan, InterferenceScheduler
from repro.testbed import build_testbed


def terminated_run(seed, at):
    """A run whose instance was randomly killed mid-upgrade."""
    testbed = build_testbed(cluster_size=4, seed=seed)
    scheduler = InterferenceScheduler(testbed.engine, testbed.cloud, "asg-dsn", seed=seed)
    scheduler.schedule(InterferencePlan(random_termination_at=at))
    testbed.run_upgrade()
    return testbed


@pytest.fixture(scope="module")
def terminated():
    return terminated_run(301, 120.0)


class TestUndeterminedResolution:
    def test_online_diagnosis_was_undetermined(self, terminated):
        statuses = {
            (c.node_id, c.status) for r in terminated.pod.reports for c in r.root_causes
        }
        assert ("instance-terminated-externally", "undetermined") in statuses

    def test_offline_attributes_the_termination(self):
        """Once CloudTrail has delivered, the same trees walked again name
        the termination's author for every undetermined report."""
        for seed, at in ((301, 120.0), (61, 110.0)):
            testbed = terminated_run(seed, at)
            engine, pod = testbed.engine, testbed.pod
            held = [r for r in pod.reports if any(c.status == "undetermined" for c in r.root_causes)]
            assert held
            engine.run(until=engine.now + testbed.cloud.trail.max_delay)
            for report in held:
                pod.diagnosis.diagnose(report.tree_ids, trigger_detail=f"post-mortem of {report.request_id}")
            engine.run(until=engine.now + 120)
            later = pod.reports[-len(held):]
            assert {r.trigger_detail for r in later} == {f"post-mortem of {r.request_id}" for r in held}
            for report in later:
                assert [(c.node_id, c.status) for c in report.root_causes] == [
                    ("termination-author", "confirmed")
                ]
                (author,) = [t for t in report.tests if t.node_id == "termination-author"]
                assert author.evidence["principals"] == ["chaos-script"]


class TestTransientPostmortem:
    def test_write_history_sees_flap_the_monitor_missed(self):
        testbed = build_testbed(cluster_size=4, seed=302)
        cloud = testbed.cloud
        since = cloud.engine.now
        cloud.engine.run(until=cloud.engine.now + 5)
        record = cloud.injector.change_lc_ami("lc-app-v1", "ami-flap")
        cloud.engine.run(until=cloud.engine.now + 3)  # shorter than the crawl interval
        cloud.injector.revert(record)
        flaps = transient_changes(cloud.state, "launch_configuration", "lc-app-v1", since=since)
        assert len(flaps) == 1
        assert flaps[0]["duration"] == pytest.approx(3.0)
        assert flaps[0]["transient_value"]["ImageId"] == "ami-flap"

    def test_no_state_returns_empty(self):
        """A resource with no recorded state has no flaps."""
        assert transient_changes(CloudState(), "launch_configuration", "x") == []


class TestTimeline:
    def test_timeline_is_chronological_and_merged(self, terminated):
        records = terminated.pod.storage.by_trace("upgrade-1")
        assert records
        times = [r.time for r in records]
        assert times == sorted(times)
        kinds = {r.type for r in records}
        assert "operation" in kinds
        assert "assertion" in kinds or "conformance" in kinds
