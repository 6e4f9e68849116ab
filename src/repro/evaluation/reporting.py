"""Campaign report generator: one Markdown document per campaign.

Produces the paper-vs-measured record EXPERIMENTS.md is hand-curated
from: headline numbers, Table I, Fig. 6, Fig. 7, the per-run ledger, and
the failure-mode breakdown — regenerable from any campaign with any
configuration (``python -m repro campaign --report out.md``).
"""

from __future__ import annotations

import typing as _t

from repro.evaluation.campaign import RunOutcome
from repro.evaluation.figures import diagnosis_time_distribution
from repro.evaluation.metrics import CampaignMetrics

#: The paper's reference numbers, for side-by-side tables.
PAPER = {
    "faults": "160/160",
    "interference": "46",
    "precision": "91.95%",
    "recall": "100%",
    "accuracy": "96.55-97.13%",
    "diag_mean": "2.30s",
    "diag_p95": "3.83s",
    "diag_range": "1.29-10.44s",
}


def render_markdown(
    outcomes: _t.Sequence[RunOutcome],
    metrics: CampaignMetrics,
) -> str:
    """The full report as a Markdown string."""
    sections = [
        "# POD-Diagnosis campaign report\n",
        _headline_section(metrics),
        _fig6_section(metrics),
        _fig7_section(metrics),
        _failure_modes_section(outcomes),
    ]
    if metrics.recovery_attempted:
        sections.append(_recovery_section(outcomes, metrics))
    sections.append(_ledger_section(outcomes))
    return "\n".join(sections)


def _headline_section(metrics: CampaignMetrics) -> str:
    stats = metrics.diagnosis_time_stats()
    rows = [
        ("Total runs", "-", str(metrics.total_runs)),
        ("Failed runs (crashed, excluded)", "0", str(metrics.failed_runs)),
        ("Scored runs", "-", str(metrics.scored_runs)),
        ("Injected faults detected", PAPER["faults"],
         f"{metrics.faults_detected}/{metrics.faults_injected}"),
        ("Interference detections", PAPER["interference"],
         f"{metrics.interference_detected} (of {metrics.interference_events} events)"),
        ("False positives", "~14", str(metrics.false_positives)),
        ("Precision of detection", PAPER["precision"], f"{metrics.precision:.2%}"),
        ("Recall of detection", PAPER["recall"], f"{metrics.recall:.2%}"),
        ("Accuracy rate of diagnosis", PAPER["accuracy"], f"{metrics.accuracy_rate:.2%}"),
        ("Diagnosis time mean", PAPER["diag_mean"], f"{stats['mean']:.2f}s"),
        ("Diagnosis time p95", PAPER["diag_p95"], f"{stats['p95']:.2f}s"),
        ("Diagnosis time range", PAPER["diag_range"],
         f"{stats['min']:.2f}-{stats['max']:.2f}s"),
    ]
    lines = ["## Headline (Table I)\n", "| Metric | Paper | Measured |", "|---|---|---|"]
    lines += [f"| {name} | {paper} | {measured} |" for name, paper, measured in rows]
    return "\n".join(lines) + "\n"


def _fig6_section(metrics: CampaignMetrics) -> str:
    lines = ["## Figure 6 — diagnosis time distribution\n",
             "| Bin | Count |", "|---|---|"]
    for label, count in diagnosis_time_distribution(metrics.diagnosis_times):
        lines.append(f"| {label} | {count} |")
    return "\n".join(lines) + "\n"


def _fig7_section(metrics: CampaignMetrics) -> str:
    lines = [
        "## Figure 7 — per fault type\n",
        "| Fault type | Precision | Recall | Accuracy |",
        "|---|---|---|---|",
    ]
    for fault_type, bucket in metrics.per_fault.items():
        lines.append(
            f"| {fault_type} | {bucket.precision:.1%} | {bucket.recall:.1%}"
            f" | {bucket.accuracy_rate:.1%} |"
        )
    lines.append(
        f"| **OVERALL** | {metrics.precision:.1%} | {metrics.recall:.1%}"
        f" | {metrics.accuracy_rate:.1%} |"
    )
    return "\n".join(lines) + "\n"


def _failure_modes_section(outcomes: _t.Sequence[RunOutcome]) -> str:
    fp_runs = [o for o in outcomes if o.false_positive_reports()]
    wrong = [
        o for o in outcomes if o.fault_detected and not o.fault_diagnosed_correctly()
    ]
    transient = [o for o in outcomes if o.spec.transient]
    masked = [o for o in outcomes if not o.fault_manifested]
    lines = [
        "## Failure modes (§VI.A classes)\n",
        f"- runs with false-positive detections: {len(fp_runs)}"
        f" ({', '.join(o.spec.run_id for o in fp_runs[:8])})",
        f"- runs with wrong/incomplete fault diagnosis: {len(wrong)}"
        f" ({', '.join(o.spec.run_id for o in wrong[:8])})",
        f"- transient-fault runs: {len(transient)}",
        f"- runs whose fault never manifested (masked by interference/timing):"
        f" {len(masked)}",
    ]
    return "\n".join(lines) + "\n"


def _recovery_section(
    outcomes: _t.Sequence[RunOutcome], metrics: CampaignMetrics
) -> str:
    """Closed-loop recovery: terminal classes, MTTR, per-run outcomes."""
    mttr = metrics.mttr_stats()
    lines = [
        "## Recovery (closed loop)\n",
        f"- attempted: {metrics.recovery_attempted}"
        f" | RECOVERED: {metrics.recovered_runs}"
        f" | ESCALATED: {metrics.escalated_runs}"
        f" | resumed operations: {metrics.resumed_runs}",
        f"- recovery success rate: {metrics.recovery_success_rate:.1%}",
        f"- MTTR (virtual, symptom → verified): mean {mttr['mean']:.1f}s,"
        f" p95 {mttr['p95']:.1f}s, range {mttr['min']:.1f}-{mttr['max']:.1f}s",
        "",
        "| Run | Class | Reason | Actions | Resumed | MTTR | Advisory |",
        "|---|---|---|---|---|---|---|",
    ]
    for outcome in outcomes:
        rec = outcome.recovery
        if not rec:
            continue
        actions = ", ".join(
            f"{a['action']}→{a['status']}" for a in rec["actions"]
        ) or "-"
        mttr_cell = f"{rec['mttr']:.0f}s" if rec.get("mttr") is not None else "-"
        resumed = rec.get("resume_status") or ("-" if not rec.get("resumed") else "?")
        advisory = str(len(rec.get("advisory", []))) if rec.get("advisory") else "-"
        lines.append(
            f"| {outcome.spec.run_id} | {rec['status']}"
            f" | {rec['escalation_reason'] or '-'} | {actions}"
            f" | {resumed} | {mttr_cell} | {advisory} |"
        )
    return "\n".join(lines) + "\n"


def _ledger_section(outcomes: _t.Sequence[RunOutcome]) -> str:
    lines = [
        "## Per-run ledger\n",
        "| Run | n | Injected at | Detected | First trigger | Correct | Interference |",
        "|---|---|---|---|---|---|---|",
    ]
    for outcome in outcomes:
        interference = ",".join(
            t for t in outcome.truth if t != outcome.spec.fault_type
        ) or "-"
        injected = f"{outcome.injected_at:.0f}s" if outcome.injected_at is not None else "-"
        lines.append(
            f"| {outcome.spec.run_id} | {outcome.spec.cluster_size} | {injected}"
            f" | {'yes' if outcome.fault_detected else 'NO'}"
            f" | {outcome.first_detection_kind or '-'}"
            f" | {'yes' if outcome.fault_diagnosed_correctly() else 'no'}"
            f" | {interference} |"
        )
    return "\n".join(lines) + "\n"
