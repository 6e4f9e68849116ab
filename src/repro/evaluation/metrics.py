"""Table I metrics: detection precision/recall, diagnosis accuracy rate.

Definitions follow the paper exactly:

- **TPdet** — detected real anomalies: every injected fault that was
  detected, plus every concurrent-interference event whose effect was
  detected (the paper's "46 interferences caused by concurrent
  operations" count on the TP side of precision);
- **FNdet** — injected faults that went undetected;
- **FPdet** — detections whose diagnosis matches no real event (timer
  timeouts on late logs, assertion races);
- **Precision** = TP / (TP + FP); **Recall** = TP_faults / (TP_faults + FN);
- **Accuracy rate** = Numcorrect / (TP + FP), where a detection is
  correctly diagnosed if its report confirms the right root cause, and an
  FP is correctly diagnosed if the report says "No root cause identified".
"""

from __future__ import annotations

import dataclasses
import math
import operator
import statistics
import typing as _t

from repro.evaluation.campaign import RunOutcome, RunScore
from repro.evaluation.faults import FAULT_TYPES, RESOURCE_FAULTS
from repro.obs.snapshot import merge_snapshots


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 1.0


@dataclasses.dataclass
class FaultTypeMetrics:
    """One Fig. 7 column group: the Table I tally of one fault type's runs.

    Summed over fault types (:attr:`CampaignMetrics.overall`) it is the
    campaign's tally, so the three rates below are the campaign's too.
    """

    fault_type: str
    runs: int = 0
    tp: int = 0
    fp: int = 0
    interference_tp: int = 0
    correct_diagnoses: int = 0

    def add(self, score: RunScore) -> None:
        """Count one scored run of this fault type."""
        self.runs += 1
        self.tp += score.detected
        self.fp += len(score.false_positives)
        self.interference_tp += len(score.interference)
        self.correct_diagnoses += score.correct

    @property
    def precision(self) -> float:
        return _ratio(self.tp + self.interference_tp, self.tp + self.interference_tp + self.fp)

    @property
    def recall(self) -> float:
        # A scored run is a TP or an FN: TP + FN is the run count.
        return _ratio(self.tp, self.runs)

    @property
    def accuracy_rate(self) -> float:
        return _ratio(self.correct_diagnoses, self.tp + self.interference_tp + self.fp)


#: The counts a bucket holds; the campaign's are their sums.
_COUNTS = ("runs", "tp", "fp", "interference_tp", "correct_diagnoses")


@dataclasses.dataclass
class CampaignMetrics:
    """Aggregate + per-fault-type metrics for a finished campaign."""

    per_fault: dict[str, FaultTypeMetrics]
    total_runs: int
    interference_events: int
    diagnosis_times: list[float]
    detection_latencies: list[float]
    conformance_first_runs: int
    conformance_eligible_runs: int
    #: Runs that crashed (structured failures): excluded from every rate
    #: rather than silently miscounted as misses or FPs.
    failed_runs: int = 0
    #: Diagnostic-test verdicts lost to API-plane degradation (chaos).
    degraded_verdicts: int = 0
    #: Summed consistent-API + chaos counters across runs (API health).
    api_health: dict = dataclasses.field(default_factory=dict)
    #: Merged pipeline observability snapshot (counters summed, gauges
    #: maxed, histogram buckets summed) across traced, scored runs.
    #: Empty unless the campaign ran with tracing enabled.
    pipeline_metrics: dict = dataclasses.field(default_factory=dict)
    #: Closed-loop recovery (see :mod:`repro.recovery`): runs where the
    #: supervisor attempted recovery, split into terminal classes, plus
    #: per-recovered-run MTTR samples (virtual seconds from first error
    #: symptom to verified recovery).  All zero/empty unless the campaign
    #: ran with ``recover`` enabled.
    recovery_attempted: int = 0
    recovered_runs: int = 0
    escalated_runs: int = 0
    resumed_runs: int = 0
    mttr_values: list[float] = dataclasses.field(default_factory=list)

    @property
    def overall(self) -> FaultTypeMetrics:
        """The per-fault buckets summed: Fig. 7's OVERALL row."""
        buckets = self.per_fault.values()
        return FaultTypeMetrics(
            "OVERALL", **{count: sum(getattr(b, count) for b in buckets) for count in _COUNTS}
        )

    @property
    def scored_runs(self) -> int:
        """Runs that actually contribute to the rates."""
        return self.total_runs - self.failed_runs

    #: The campaign's Table I tally and rates are its buckets' sum.
    faults_injected = property(operator.attrgetter("overall.runs"))
    faults_detected = property(operator.attrgetter("overall.tp"))
    interference_detected = property(operator.attrgetter("overall.interference_tp"))
    false_positives = property(operator.attrgetter("overall.fp"))
    correct_diagnoses = property(operator.attrgetter("overall.correct_diagnoses"))
    precision = property(operator.attrgetter("overall.precision"))
    recall = property(operator.attrgetter("overall.recall"))
    accuracy_rate = property(operator.attrgetter("overall.accuracy_rate"))

    @property
    def tp(self) -> int:
        return self.faults_detected + self.interference_detected

    def diagnosis_time_stats(self) -> dict[str, float]:
        return _time_stats(self.diagnosis_times)

    @property
    def recovery_success_rate(self) -> float:
        """RECOVERED / attempted (1.0 when recovery was never attempted)."""
        if not self.recovery_attempted:
            return 1.0
        return self.recovered_runs / self.recovery_attempted

    def mttr_stats(self) -> dict[str, float]:
        """Mean-time-to-recovery stats over verified recoveries (virtual
        seconds, first error symptom → verification green)."""
        return _time_stats(self.mttr_values)


def _time_stats(values: _t.Sequence[float]) -> dict[str, float]:
    times = sorted(values)
    if not times:
        return {"min": 0.0, "mean": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "min": times[0],
        "mean": statistics.fmean(times),
        # Nearest-rank percentile: rank ceil(p*n) (1-based), so a
        # single sample is its own p95 and n=20 picks the 19th value.
        "p95": times[math.ceil(0.95 * len(times)) - 1],
        "max": times[-1],
    }


def compute_metrics(outcomes: _t.Sequence[RunOutcome]) -> CampaignMetrics:
    per_fault = {ft: FaultTypeMetrics(fault_type=ft) for ft in FAULT_TYPES}
    diagnosis_times: list[float] = []
    detection_latencies: list[float] = []
    interference_events = 0
    conformance_first = 0
    conformance_eligible = 0
    failed_runs = 0
    degraded_verdicts = 0
    api_health: dict = {}
    metric_snapshots: list[dict] = []
    recovery_attempted = 0
    recovered_runs = 0
    escalated_runs = 0
    resumed_runs = 0
    mttr_values: list[float] = []

    for outcome in outcomes:
        if outcome.failed:
            failed_runs += 1
            continue
        rec = outcome.recovery
        if rec:
            recovery_attempted += 1
            if rec.get("status") == "RECOVERED":
                recovered_runs += 1
                if rec.get("mttr") is not None:
                    mttr_values.append(rec["mttr"])
            else:
                escalated_runs += 1
            if rec.get("resumed"):
                resumed_runs += 1
        if outcome.metrics:
            metric_snapshots.append(outcome.metrics)
        degraded_verdicts += outcome.degraded_verdicts
        for key, value in outcome.api_health.items():
            api_health[key] = api_health.get(key, 0) + value
        ft = outcome.spec.fault_type
        per_fault.setdefault(ft, FaultTypeMetrics(fault_type=ft)).add(outcome.score())
        interference_truth = [t for t in outcome.truth if t != ft]
        interference_events += len(interference_truth)

        diagnosis_times.extend(outcome.diagnosis_times())
        if outcome.injected_at is not None and outcome.first_detection_at is not None:
            latency = outcome.first_detection_at - outcome.injected_at
            if latency >= 0:
                detection_latencies.append(latency)
        if ft in RESOURCE_FAULTS:
            # The paper's 20-of-80 statistic concerns the *fault's* trace
            # perturbation; interference perturbs traces of any fault
            # type, so the statistic is computed on interference-free
            # runs (and scaled mentally to the 80-run denominator).
            conformance_eligible += 1
            if outcome.conformance_before_assertion and not interference_truth:
                conformance_first += 1

    return CampaignMetrics(
        per_fault=per_fault,
        total_runs=len(outcomes),
        interference_events=interference_events,
        diagnosis_times=diagnosis_times,
        detection_latencies=detection_latencies,
        conformance_first_runs=conformance_first,
        conformance_eligible_runs=conformance_eligible,
        failed_runs=failed_runs,
        degraded_verdicts=degraded_verdicts,
        api_health=api_health,
        pipeline_metrics=merge_snapshots(metric_snapshots) if metric_snapshots else {},
        recovery_attempted=recovery_attempted,
        recovered_runs=recovered_runs,
        escalated_runs=escalated_runs,
        resumed_runs=resumed_runs,
        mttr_values=mttr_values,
    )
