"""Campaign report generator: one Markdown document per campaign.

Produces the paper-vs-measured record EXPERIMENTS.md is hand-curated
from: headline numbers, Table I, Fig. 6, Fig. 7, the per-run ledger, and
the failure-mode breakdown — regenerable from any campaign with any
configuration (``python -m repro campaign --report out.md``).
"""

from __future__ import annotations

import typing as _t

from repro.evaluation.campaign import RunOutcome
from repro.evaluation.figures import diagnosis_time_distribution, fig7_rows, headline_rows
from repro.evaluation.metrics import CampaignMetrics


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
    lines = [
        "## Headline (Table I)\n",
        f"Runs: {metrics.total_runs} total, {metrics.failed_runs} crashed (excluded from"
        f" every rate), {metrics.scored_runs} scored.\n",
        "| Metric | Paper | Measured |",
        "|---|---|---|",
    ]
    lines += [
        f"| {name.capitalize()} | {paper} | {measured} |"
        for name, paper, measured in headline_rows(metrics)
    ]
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
    *per_fault, overall = fig7_rows(metrics)
    named = [(bucket.fault_type, bucket) for bucket in per_fault]
    for name, bucket in named + [(f"**{overall.fault_type}**", overall)]:
        lines.append(
            f"| {name} | {bucket.precision:.1%} | {bucket.recall:.1%}"
            f" | {bucket.accuracy_rate:.1%} |"
        )
    return "\n".join(lines) + "\n"


def _failure_modes_section(outcomes: _t.Sequence[RunOutcome]) -> str:
    """§VI.A's classes over the runs that finished; a crashed run has no
    fault to miss or diagnose."""
    scored = [(o, o.score()) for o in outcomes if not o.failed]
    fp_runs = [o for o, score in scored if score.false_positives]
    wrong = [o for o, score in scored if score.detected and not score.fault_correct]
    transient = [o for o, _score in scored if o.spec.transient]
    masked = [o for o, _score in scored if not o.fault_manifested]
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
        if outcome.failed:
            detected = correct = "crashed"
        else:
            score = outcome.score()
            detected = "yes" if score.detected else "NO"
            correct = "yes" if score.fault_correct else "no"
        lines.append(
            f"| {outcome.spec.run_id} | {outcome.spec.cluster_size} | {injected}"
            f" | {detected} | {outcome.first_detection_kind or '-'} | {correct}"
            f" | {interference} |"
        )
    return "\n".join(lines) + "\n"
