"""Integration tests: the full POD-Diagnosis service on a testbed."""

import pytest

from repro.evaluation.faults import FaultPlan, schedule_fault
from repro.testbed import Testbed, build_testbed


@pytest.fixture(scope="module")
def clean_run():
    """One shared happy-path upgrade (module-scoped: it is expensive)."""
    testbed = build_testbed(cluster_size=4, seed=101)
    operation = testbed.run_upgrade()
    return testbed, operation


class TestHappyPath:
    def test_upgrade_completes(self, clean_run):
        _testbed, operation = clean_run
        assert operation.status == "completed"

    def test_no_detections_on_clean_run(self, clean_run):
        testbed, _ = clean_run
        assert testbed.pod.detections == []

    def test_trace_is_fully_conformant(self, clean_run):
        testbed, _ = clean_run
        assert testbed.pod.conformance.fitness_of("upgrade-1") == 1.0

    def test_assertions_evaluated_and_all_passed(self, clean_run):
        testbed, _ = clean_run
        results = testbed.pod.assertions.results
        assert len(results) >= 10
        assert all(r.passed for r in results)

    def test_important_lines_shipped_to_central_storage(self, clean_run):
        testbed, _ = clean_run
        operation_logs = testbed.pod.storage.query(type="operation")
        assert len(operation_logs) >= 10
        assert all(r.tag_value("trace") == "upgrade-1" for r in operation_logs)

    def test_debug_chatter_filtered_out(self, clean_run):
        testbed, _ = clean_run
        logged = testbed.pod.storage.query(type="operation")
        assert not [r for r in logged if "DEBUG" in r.message]
        assert [r for r in testbed.stream.records if "DEBUG" in r.message]

    def test_assertion_results_logged_centrally(self, clean_run):
        """Each result is stored once: storage holds the objects ``results``
        holds, in order."""
        testbed, _ = clean_run
        stored = testbed.pod.storage.query(type="assertion")
        results = testbed.pod.assertions.results
        assert len(stored) == len(results)
        assert all(entry is result for entry, result in zip(stored, results))


class TestFaultDetectionEndToEnd:
    def test_wrong_ami_detected_and_diagnosed(self):
        testbed = build_testbed(cluster_size=4, seed=102)
        schedule_fault(testbed, FaultPlan(fault_type="AMI_CHANGED", inject_at=40.0))
        testbed.run_upgrade()
        assert testbed.pod.detections, "fault must be detected"
        causes = {
            c.node_id for r in testbed.pod.reports for c in r.root_causes if c.status == "confirmed"
        }
        assert "wrong-ami" in causes

    def test_resource_fault_detected_by_watchdog(self):
        testbed = build_testbed(cluster_size=4, seed=103)
        schedule_fault(testbed, FaultPlan(fault_type="KEYPAIR_UNAVAILABLE", inject_at=30.0))
        testbed.run_upgrade()
        kinds = {(d.kind, d.cause) for d in testbed.pod.detections}
        assert ("assertion", "timer-timeout") in kinds
        causes = {c.node_id for r in testbed.pod.reports for c in r.root_causes}
        assert "key-pair-unavailable" in causes

    def test_detection_latency_is_minutes_not_hours(self):
        """The paper's motivation: Asgard may take 70 minutes to report;
        POD detects within watchdog granularity (seconds to ~3 minutes)."""
        testbed = build_testbed(cluster_size=4, seed=104)
        fault = schedule_fault(testbed, FaultPlan(fault_type="AMI_UNAVAILABLE", inject_at=30.0))
        testbed.run_upgrade()
        first = min(d.time for d in testbed.pod.detections)
        assert first - fault.record.time < 300


class TestQuiesce:
    def test_quiesce_waits_for_in_flight_work(self):
        testbed = build_testbed(cluster_size=4, seed=105)
        schedule_fault(testbed, FaultPlan(fault_type="ELB_UNAVAILABLE", inject_at=30.0))
        testbed.run_upgrade()
        assert testbed.pod.reports
        assert testbed.pod.diagnosis.in_flight == 0
        assert testbed.pod.assertions.in_flight == 0


class TestViews:
    def test_detection_partition(self, clean_run):
        testbed, _ = clean_run
        assert testbed.pod.detections == []

    def test_batch_size_drives_watchdog_calibration(self):
        small = Testbed(cluster_size=4, seed=106)
        assert small.pod.timers.interval == 140.0
        large = Testbed(cluster_size=20, seed=106)
        assert large.pod.timers.interval == 170.0
