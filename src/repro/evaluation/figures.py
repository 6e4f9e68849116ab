"""Text renderings of the paper's figures and headline numbers.

The ``campaign`` CLI and ``tests/paper/`` print these; the Markdown
report (:mod:`repro.evaluation.reporting`) renders the same rows;
EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

import statistics
import typing as _t

from repro.evaluation.metrics import CampaignMetrics, FaultTypeMetrics

#: The paper's reference numbers, shown beside the measured ones.
PAPER = {
    "faults": "160/160", "interference": "46", "false_positives": "~14",
    "precision": "91.95%", "recall": "100%", "accuracy": "96.55-97.13%",
    "diag_mean": "2.30s", "diag_p95": "3.83s", "diag_range": "1.29-10.44s",
    "detection_latency": "(Asgard: up to 70 min)", "conformance_first": "20/80 resource-fault runs",
}

#: Fig. 6 histogram bin edges (seconds).
FIG6_BINS = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, float("inf"))


def diagnosis_time_distribution(times: _t.Sequence[float]) -> list[tuple[str, int]]:
    """Histogram of diagnosis times over the Fig. 6 bins."""
    counts = [0] * (len(FIG6_BINS) - 1)
    for t in times:
        for i in range(len(FIG6_BINS) - 1):
            if FIG6_BINS[i] <= t < FIG6_BINS[i + 1]:
                counts[i] += 1
                break
    labels = []
    for i in range(len(FIG6_BINS) - 1):
        hi = FIG6_BINS[i + 1]
        label = f"{FIG6_BINS[i]:.0f}-{hi:.0f}s" if hi != float("inf") else f">{FIG6_BINS[i]:.0f}s"
        labels.append(label)
    return list(zip(labels, counts))


def render_fig6(metrics: CampaignMetrics) -> str:
    """Fig. 6: distribution of error diagnosis time."""
    times = sorted(metrics.diagnosis_times)
    lines = ["Figure 6 — Distribution of error diagnosis time"]
    if not times:
        return "\n".join(lines + ["(no diagnoses recorded)"])
    total = len(times)
    for label, count in diagnosis_time_distribution(times):
        bar = "#" * max(1, round(40 * count / total)) if count else ""
        lines.append(f"  {label:>7}: {count:4d} {bar}")
    stats = metrics.diagnosis_time_stats()
    lines.append(
        f"  n={total}  min={stats['min']:.2f}s  mean={stats['mean']:.2f}s"
        f"  p95={stats['p95']:.2f}s  max={stats['max']:.2f}s"
    )
    lines.append(
        f"  paper: range {PAPER['diag_range']}, mean {PAPER['diag_mean']},"
        f" 95% within {PAPER['diag_p95']}"
    )
    return "\n".join(lines)


def fig7_rows(metrics: CampaignMetrics) -> list[FaultTypeMetrics]:
    """Fig. 7's rows: one per fault type, then the OVERALL sum."""
    return [*metrics.per_fault.values(), metrics.overall]


def render_fig7(metrics: CampaignMetrics) -> str:
    """Fig. 7: precision / recall / accuracy rate per fault type."""
    lines = [
        "Figure 7 — Precision / Recall of detection, Accuracy rate of diagnosis by fault type",
        f"  {'fault type':<24} {'precision':>9} {'recall':>7} {'accuracy':>9}",
    ]
    for bucket in fig7_rows(metrics):
        lines.append(
            f"  {bucket.fault_type:<24} {bucket.precision:>8.1%} {bucket.recall:>6.1%}"
            f" {bucket.accuracy_rate:>8.1%}"
        )
    return "\n".join(lines)


def headline_rows(metrics: CampaignMetrics) -> list[tuple[str, str, str]]:
    """The abstract's headline numbers as (metric, paper, measured) rows."""
    stats = metrics.diagnosis_time_stats()
    rows = [
        ("injected faults detected", PAPER["faults"],
         f"{metrics.faults_detected}/{metrics.faults_injected}"),
        ("interference detections", PAPER["interference"],
         f"{metrics.interference_detected} (of {metrics.interference_events} events)"),
        ("false positives", PAPER["false_positives"], str(metrics.false_positives)),
        ("precision of detection", PAPER["precision"], f"{metrics.precision:.2%}"),
        ("recall of detection", PAPER["recall"], f"{metrics.recall:.2%}"),
        ("accuracy rate", PAPER["accuracy"], f"{metrics.accuracy_rate:.2%}"),
        ("diagnosis time mean", PAPER["diag_mean"], f"{stats['mean']:.2f}s"),
        ("diagnosis time 95th pct", PAPER["diag_p95"], f"{stats['p95']:.2f}s"),
    ]
    if metrics.detection_latencies:
        rows.append((
            "detection latency mean", PAPER["detection_latency"],
            f"{statistics.fmean(metrics.detection_latencies):.1f}s",
        ))
    rows.append((
        "conformance flagged first", PAPER["conformance_first"],
        f"{metrics.conformance_first_runs}/{metrics.conformance_eligible_runs}",
    ))
    return rows


def render_headline(metrics: CampaignMetrics) -> str:
    """The abstract's headline numbers, paper vs measured."""
    lines = ["Headline results (paper → measured)"]
    lines += [
        f"  {name:<25}: {paper} → {measured}" for name, paper, measured in headline_rows(metrics)
    ]
    return "\n".join(lines)
