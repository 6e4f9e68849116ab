"""Tests for figure rendering, diagnosis reports and the operation's repository."""

import pytest

from repro.diagnosis.report import DiagnosisReport, RootCause, TestExecution
from repro.evaluation.figures import (
    FIG6_BINS,
    diagnosis_time_distribution,
    render_fig6,
    render_fig7,
    render_headline,
)
from repro.evaluation.metrics import CampaignMetrics, FaultTypeMetrics
from repro.operations.rolling_upgrade import RollingUpgradeParams
from repro.operations.target import TargetConfig


def make_metrics(times=(1.5, 2.5, 2.7, 3.1, 9.0)):
    per_fault = {
        "AMI_CHANGED": FaultTypeMetrics(
            "AMI_CHANGED", runs=2, tp=2, fp=1, interference_tp=1, correct_diagnoses=3
        )
    }
    return CampaignMetrics(
        per_fault=per_fault,
        total_runs=2,
        interference_events=1,
        diagnosis_times=list(times),
        detection_latencies=[120.0, 80.0],
        conformance_first_runs=1,
        conformance_eligible_runs=4,
    )


class TestDistribution:
    def test_bins_cover_all_times(self):
        histogram = diagnosis_time_distribution([0.5, 1.5, 7.0, 50.0])
        assert sum(count for _l, count in histogram) == 4

    def test_bin_labels(self):
        labels = [label for label, _c in diagnosis_time_distribution([])]
        assert labels[0] == "0-1s"
        assert labels[-1] == ">10s"
        assert len(labels) == len(FIG6_BINS) - 1

    def test_boundary_values_in_lower_bin(self):
        histogram = dict(diagnosis_time_distribution([1.0]))
        assert histogram["1-2s"] == 1


class TestRenderers:
    def test_fig6_contains_stats(self):
        text = render_fig6(make_metrics())
        assert "mean=" in text and "p95=" in text and "paper:" in text

    def test_fig6_empty(self):
        text = render_fig6(make_metrics(times=()))
        assert "no diagnoses" in text

    def test_fig7_lists_every_fault_type_and_overall(self):
        text = render_fig7(make_metrics())
        assert "AMI_CHANGED" in text and "OVERALL" in text

    def test_headline_shows_paper_vs_measured(self):
        text = render_headline(make_metrics())
        assert "91.95%" in text
        assert "2/2" in text


class TestMetricsProperties:
    def test_precision_recall_accuracy(self):
        metrics = make_metrics()
        assert metrics.tp == 3
        assert metrics.precision == pytest.approx(3 / 4)
        assert metrics.recall == 1.0
        assert metrics.accuracy_rate == pytest.approx(3 / 4)

    def test_empty_denominators_are_safe(self):
        bucket = FaultTypeMetrics("X")
        assert bucket.precision == 1.0
        assert bucket.recall == 1.0
        assert bucket.accuracy_rate == 1.0

    def test_time_stats_empty(self):
        metrics = make_metrics(times=())
        assert metrics.diagnosis_time_stats() == {
            "min": 0.0, "mean": 0.0, "p95": 0.0, "max": 0.0,
        }


class TestDiagnosisReport:
    def _report(self, causes):
        return DiagnosisReport(
            request_id="diag-1",
            trigger="assertion",
            trigger_detail="x",
            trace_id="t1",
            step="ready",
            started_at=10.0,
            finished_at=12.5,
            root_causes=causes,
        )

    def test_duration(self):
        assert self._report([]).duration == 2.5

    def test_no_root_cause(self):
        assert self._report([]).no_root_cause
        assert "No root cause" in self._report([]).summary()

    def test_summary_lists_cause_statuses(self):
        report = self._report(
            [RootCause("a", "", "confirmed"), RootCause("b", "", "undetermined")]
        )
        assert "Root causes: a (confirmed), b (undetermined)" in report.summary()

    def test_test_execution_defaults(self):
        execution = TestExecution(node_id="n", test_kind="assertion", test_name="t", verdict="excluded")
        assert not execution.cached
        assert execution.evidence == {}


class TestPodConfig:
    """The configuration repository a rolling upgrade's declaration derives."""

    def _config(self, **overrides):
        defaults = dict(
            asg_name="asg-x",
            elb_name="elb-x",
            desired_capacity=4,
            target=TargetConfig(
                image_id="ami-1", key_name="k", instance_type="m1.small", security_groups=["sg"]
            ),
            lc_name="lc-x",
        )
        defaults.update(overrides)
        return RollingUpgradeParams(**defaults)

    def test_repository_contains_expectations(self):
        repo = self._config().as_repository(since=300.0)
        assert repo["asg_name"] == "asg-x"
        assert repo["expected_image_id"] == "ami-1"
        assert repo["desired_capacity"] == 4
        assert repo["since"] == 300.0

    def test_min_in_service_is_availability_floor(self):
        assert self._config(batch_size=1).as_repository(0.0)["min_in_service"] == 3
        assert self._config(batch_size=4).as_repository(0.0)["min_in_service"] == 1
        assert self._config(desired_capacity=20, batch_size=4).as_repository(0.0)["min_in_service"] == 16

    def test_floor_never_below_one(self):
        assert self._config(desired_capacity=1, batch_size=5).as_repository(0.0)["min_in_service"] == 1

    def test_repository_lists_are_copies(self):
        config = self._config()
        repo = config.as_repository(0.0)
        repo["expected_security_groups"].append("tampered")
        assert config.target.security_groups == ["sg"]
