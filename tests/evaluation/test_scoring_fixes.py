"""Regression tests for campaign scoring: p95 rank, random-termination
accuracy, pre-injection detections, run-count bookkeeping,
pipeline-metrics aggregation."""

import dataclasses

from repro.evaluation.campaign import ReportSummary, RunOutcome, RunSpec
from repro.evaluation.metrics import CampaignMetrics, compute_metrics
from repro.obs.snapshot import Histogram


def _metrics_with_times(times: list[float]) -> CampaignMetrics:
    return CampaignMetrics(
        per_fault={},
        total_runs=0,
        interference_events=0,
        diagnosis_times=times,
        detection_latencies=[],
        conformance_first_runs=0,
        conformance_eligible_runs=0,
    )


def _report(causes: list[tuple[str, str]], trigger_detail: str = "x") -> ReportSummary:
    return ReportSummary(
        trigger="assertion",
        trigger_detail=trigger_detail,
        duration=2.0,
        causes=causes,
        no_root_cause=not any(s == "confirmed" for _n, s in causes),
        test_count=3,
    )


def _outcome(
    fault_type: str = "AMI_CHANGED",
    truth: list[str] | None = None,
    reports: list[ReportSummary] | None = None,
    metrics: dict | None = None,
) -> RunOutcome:
    spec = RunSpec(run_id=f"{fault_type.lower()}-fx", fault_type=fault_type,
                   seed=1, inject_at=100.0)
    return RunOutcome(
        spec=spec,
        injected_at=100.0,
        reverted_at=None,
        truth=truth if truth is not None else [fault_type],
        fault_manifested=True,
        operation_status="failed",
        orchestrator_detected_at=None,
        detections=[{"time": 150.0, "kind": "assertion"}],
        reports=reports or [],
        metrics=metrics or {},
    )


class TestP95NearestRank:
    """p95 uses nearest-rank: 1-based rank ceil(0.95 * n).

    The old expression ``times[min(n - 1, round(0.95 * n))]`` returned the
    *max* for n=20 (rank 20 instead of 19) and drifted one rank high for
    most n.
    """

    def test_single_sample_is_its_own_p95(self):
        assert _metrics_with_times([7.5]).diagnosis_time_stats()["p95"] == 7.5

    def test_n19_takes_the_max(self):
        times = [float(i) for i in range(1, 20)]  # ceil(18.05) = rank 19
        assert _metrics_with_times(times).diagnosis_time_stats()["p95"] == 19.0

    def test_n20_takes_second_largest(self):
        times = [float(i) for i in range(1, 21)]  # ceil(19.0) = rank 19
        assert _metrics_with_times(times).diagnosis_time_stats()["p95"] == 19.0

    def test_n100_takes_95th_value(self):
        times = [float(i) for i in range(1, 101)]  # ceil(95.0) = rank 95
        assert _metrics_with_times(times).diagnosis_time_stats()["p95"] == 95.0

    def test_empty_times_all_zero(self):
        stats = _metrics_with_times([]).diagnosis_time_stats()
        assert stats == {"min": 0.0, "mean": 0.0, "p95": 0.0, "max": 0.0}

    def test_unsorted_input_is_sorted_first(self):
        times = [float(i) for i in range(100, 0, -1)]
        assert _metrics_with_times(times).diagnosis_time_stats()["p95"] == 95.0


class TestRandomTerminationScoring:
    """A detected random termination whose report honestly confirms
    nothing scores as a *correct* diagnosis (the paper could not pin the
    author either); the old code ``continue``-d past the credit."""

    def _mixed_outcome(self, termination_causes: list[tuple[str, str]]) -> RunOutcome:
        return _outcome(
            truth=["AMI_CHANGED", "RANDOM_TERMINATION"],
            reports=[
                _report([("wrong-ami", "confirmed")], trigger_detail="fault"),
                _report(termination_causes, trigger_detail="termination"),
            ],
        )

    def test_honest_undetermined_report_scores_correct(self):
        outcome = self._mixed_outcome([("instance-terminated-externally", "undetermined")])
        metrics = compute_metrics([outcome])
        assert metrics.interference_detected == 1
        # Fault + interference both correctly handled: accuracy 2/2.
        assert metrics.correct_diagnoses == 2
        assert metrics.accuracy_rate == 1.0

    def test_false_confirmation_still_scores_wrong(self):
        outcome = self._mixed_outcome([("instance-terminated-externally", "confirmed")])
        metrics = compute_metrics([outcome])
        assert metrics.interference_detected == 1
        # The termination report over-claimed: only the fault is correct.
        assert metrics.correct_diagnoses == 1
        assert metrics.accuracy_rate == 0.5

    def test_other_interference_still_requires_confirmation(self):
        outcome = _outcome(
            truth=["AMI_CHANGED", "SCALE_IN"],
            reports=[
                _report([("wrong-ami", "confirmed")], trigger_detail="fault"),
                _report([("asg-scale-in", "undetermined")], trigger_detail="scale-in"),
            ],
        )
        metrics = compute_metrics([outcome])
        assert metrics.interference_detected == 1
        assert metrics.correct_diagnoses == 1  # scale-in must confirm


class TestFaultDetected:
    """Recall counts a detection only at or after the injection."""

    @staticmethod
    def _detected_at(*times: float) -> RunOutcome:
        detections = [{"time": t, "kind": "assertion"} for t in times]
        return dataclasses.replace(_outcome(), injected_at=120.0, detections=detections)

    def test_detection_before_injection_does_not_count(self):
        early = self._detected_at(50.0)
        assert not early.fault_detected
        assert compute_metrics([early]).faults_detected == 0
        assert self._detected_at(120.0).fault_detected
        assert self._detected_at(50.0, 150.0).fault_detected


class TestRunCounts:
    def test_scored_runs_excludes_failures(self):
        spec = RunSpec(run_id="boom", fault_type="SG_WRONG", seed=2, inject_at=50.0)
        outcomes = [_outcome(), RunOutcome.failure(spec, "Traceback: boom")]
        metrics = compute_metrics(outcomes)
        assert metrics.total_runs == 2
        assert metrics.failed_runs == 1
        assert metrics.scored_runs == 1

    def test_scored_runs_equals_total_when_clean(self):
        metrics = compute_metrics([_outcome(), _outcome("SG_WRONG")])
        assert metrics.scored_runs == metrics.total_runs == 2


class TestPipelineMetricsAggregation:
    def _snapshot(self, records: int) -> dict:
        duration = Histogram()
        duration.observe(0.2)
        return {
            "counters": {"pipeline.records_ingested": records},
            "gauges": {"assertions.in_flight_max": records / 10},
            "histograms": {"assertion.duration": duration.snapshot()},
        }

    def test_traced_runs_merge_into_campaign_metrics(self):
        outcomes = [
            _outcome(metrics=self._snapshot(30)),
            _outcome("SG_WRONG", metrics=self._snapshot(50)),
        ]
        merged = compute_metrics(outcomes).pipeline_metrics
        assert merged["counters"]["pipeline.records_ingested"] == 80
        assert merged["gauges"]["assertions.in_flight_max"] == 5.0
        assert merged["histograms"]["assertion.duration"]["count"] == 2

    def test_untraced_campaign_has_empty_pipeline_metrics(self):
        assert compute_metrics([_outcome()]).pipeline_metrics == {}

    def test_failed_runs_do_not_contribute_metrics(self):
        spec = RunSpec(run_id="boom", fault_type="SG_WRONG", seed=2, inject_at=50.0)
        failed = RunOutcome.failure(spec, "Traceback: boom")
        failed.metrics = self._snapshot(999)
        merged = compute_metrics([_outcome(metrics=self._snapshot(10)), failed])
        assert merged.pipeline_metrics["counters"]["pipeline.records_ingested"] == 10
