"""Tests for the evaluation harness: fault plans, runs and scoring."""

import dataclasses

import pytest

from repro.evaluation.campaign import (
    Campaign,
    CampaignConfig,
    ReportSummary,
    RunOutcome,
    RunSpec,
    run_single,
)
from repro.evaluation.faults import FAULT_TYPES, FaultPlan, apply_fault
from repro.evaluation.metrics import compute_metrics
from repro.operations.interference import InterferencePlan
from repro.testbed import build_testbed


class TestFaultPlan:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(fault_type="GAMMA_RAYS", inject_at=1.0)

    def test_transient_only_for_revertible(self):
        with pytest.raises(ValueError):
            FaultPlan(fault_type="AMI_UNAVAILABLE", inject_at=1.0, transient=True)
        FaultPlan(fault_type="AMI_CHANGED", inject_at=1.0, transient=True)

    def test_apply_each_fault_type_mutates_cloud(self):
        for fault_type in FAULT_TYPES:
            testbed = build_testbed(cluster_size=4, seed=11)
            # Configuration faults target the upgrade's new launch
            # configuration, which exists only once the upgrade starts.
            testbed.start_upgrade()
            testbed.engine.run(until=testbed.engine.now + 10)
            record = apply_fault(testbed, fault_type)
            assert record.fault_type == fault_type


class TestRunSpecs:
    def test_build_specs_shape(self):
        campaign = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4))
        specs = campaign.build_specs()
        assert len(specs) == 160
        for fault_type in FAULT_TYPES:
            fault_specs = [s for s in specs if s.fault_type == fault_type]
            assert len(fault_specs) == 20
            assert sum(1 for s in fault_specs if s.cluster_size == 20) == 4

    def test_specs_deterministic_per_seed(self):
        a = Campaign(CampaignConfig(seed=7)).build_specs()
        b = Campaign(CampaignConfig(seed=7)).build_specs()
        assert [(s.run_id, s.inject_at, s.seed) for s in a] == [
            (s.run_id, s.inject_at, s.seed) for s in b
        ]

    def test_interference_mixed_in(self):
        specs = Campaign(CampaignConfig(runs_per_fault=20)).build_specs()
        assert any(s.interference.any() for s in specs)
        assert any(not s.interference.any() for s in specs)

    def test_some_transients_planned(self):
        specs = Campaign(CampaignConfig(runs_per_fault=20)).build_specs()
        assert any(s.transient for s in specs)


class TestRunSingle:
    def test_fault_run_detects_and_diagnoses(self):
        spec = RunSpec(
            run_id="t-ami",
            fault_type="AMI_UNAVAILABLE",
            seed=900,
            cluster_size=4,
            inject_at=40.0,
        )
        outcome = run_single(spec)
        assert outcome.injected_at is not None
        assert outcome.fault_detected
        assert outcome.fault_manifested
        assert outcome.score().fault_correct
        assert outcome.diagnosis_times()

    def test_interference_attributed(self):
        spec = RunSpec(
            run_id="t-scale",
            fault_type="SG_WRONG",
            seed=901,
            cluster_size=4,
            inject_at=60.0,
            interference=InterferencePlan(scale_in_at=80.0),
        )
        outcome = run_single(spec)
        assert "SCALE_IN" in outcome.truth
        # The scale-in either got detected+attributed or at minimum did
        # not corrupt fault scoring.
        assert outcome.fault_detected


class TestScoring:
    def _outcome(self, reports, fault="AMI_CHANGED", truth=None, manifested=True):
        return RunOutcome(
            spec=RunSpec(run_id="r", fault_type=fault, seed=1, inject_at=10.0),
            injected_at=10.0,
            reverted_at=None,
            truth=truth or [fault],
            fault_manifested=manifested,
            operation_status="completed",
            orchestrator_detected_at=None,
            detections=[{"time": 20.0, "kind": "assertion", "detail": "x", "cause": "log", "step": None}],
            reports=reports,
        )

    def _report(self, causes, no_root_cause=False):
        return ReportSummary(
            trigger="assertion",
            trigger_detail="x",
            duration=2.0,
            causes=causes,
            no_root_cause=no_root_cause,
            test_count=3,
        )

    def test_correct_diagnosis_scored(self):
        outcome = self._outcome([self._report([("wrong-ami", "confirmed")])])
        assert outcome.score().fault_correct
        assert outcome.score().false_positives == []

    def test_wrong_cause_not_correct(self):
        outcome = self._outcome([self._report([("key-pair-unavailable", "confirmed")])])
        assert not outcome.score().fault_correct

    def test_no_root_cause_report_is_fp(self):
        outcome = self._outcome([self._report([], no_root_cause=True)])
        fps = outcome.score().false_positives
        assert len(fps) == 1

    def test_repeated_fp_triggers_deduplicated(self):
        reports = [self._report([], no_root_cause=True) for _ in range(4)]
        outcome = self._outcome(reports)
        assert len(outcome.score().false_positives) == 1

    def test_unmanifested_fault_accepts_interference_explanation(self):
        outcome = self._outcome(
            [self._report([("asg-scale-in", "confirmed")])],
            truth=["AMI_UNAVAILABLE", "SCALE_IN"],
            fault="AMI_UNAVAILABLE",
            manifested=False,
        )
        assert outcome.score().fault_correct
        assert outcome.score().interference == ["SCALE_IN"]

    def test_transient_cause_accepted_when_transient(self):
        outcome = self._outcome([self._report([("transient-config-change", "confirmed")])])
        outcome.spec = dataclasses.replace(outcome.spec, transient=True)
        assert outcome.score().fault_correct

    def test_metrics_aggregation(self):
        good = self._outcome([self._report([("wrong-ami", "confirmed")])])
        fp = self._outcome(
            [
                self._report([("wrong-ami", "confirmed")]),
                self._report([], no_root_cause=True),
            ]
        )
        metrics = compute_metrics([good, fp])
        assert metrics.faults_injected == 2
        assert metrics.faults_detected == 2
        assert metrics.false_positives == 1
        assert metrics.recall == 1.0
        assert metrics.precision == pytest.approx(2 / 3)
        # Both faults correct + the honest no-root-cause FP = 3 correct.
        assert metrics.accuracy_rate == pytest.approx(1.0)

    def test_undetected_fault_hits_recall(self):
        missed = self._outcome([])
        missed.detections = []
        metrics = compute_metrics([missed])
        assert metrics.recall == 0.0

    def test_diagnosis_time_stats(self):
        outcome = self._outcome([self._report([("wrong-ami", "confirmed")])])
        metrics = compute_metrics([outcome])
        stats = metrics.diagnosis_time_stats()
        assert stats["min"] == stats["max"] == 2.0
