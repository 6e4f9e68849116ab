"""Parameter sweeps: sensitivity of the §V results to the knobs.

The paper evaluates one configuration (8 faults x 20 runs, clusters of 4
and 20, fixed timeout calibration).  A reproduction can ask the questions
the paper could not afford testbed-hours for: how diagnosis responds to
API-plane health (``repro chaos-sweep``), to interference intensity, to
cluster size and to transient faults (``tests/evaluation/test_sweeps.py``).

:func:`sweep` runs one campaign per point, each from the
:class:`CampaignConfig` its caller built, and returns structured
:class:`SweepPoint` rows that reports render.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import CampaignMetrics, compute_metrics


@dataclasses.dataclass
class SweepPoint:
    """One sweep setting and its campaign metrics."""

    parameter: str
    value: _t.Any
    metrics: CampaignMetrics

    def row(self) -> dict:
        stats = self.metrics.diagnosis_time_stats()
        return {
            "parameter": self.parameter,
            "value": self.value,
            "precision": round(self.metrics.precision, 4),
            "recall": round(self.metrics.recall, 4),
            "accuracy": round(self.metrics.accuracy_rate, 4),
            "false_positives": self.metrics.false_positives,
            "interference_detected": self.metrics.interference_detected,
            "diag_mean_s": round(stats["mean"], 2),
            "degraded_verdicts": self.metrics.degraded_verdicts,
            "crashed_runs": self.metrics.failed_runs,
        }


def sweep(
    parameter: str,
    configs: _t.Mapping[_t.Any, CampaignConfig],
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """One campaign per ``value -> config``, in the mapping's order."""
    points = []
    for value, config in configs.items():
        campaign = Campaign(config)
        campaign.run(max_workers=max_workers)
        points.append(SweepPoint(parameter, value, compute_metrics(campaign.outcomes)))
    return points


def render_sweep(points: _t.Sequence[SweepPoint]) -> str:
    """Fixed-width table of sweep results."""
    if not points:
        return "(empty sweep)"
    header = (
        f"  {'value':>8} {'precision':>9} {'recall':>7} {'accuracy':>9}"
        f" {'FPs':>4} {'interf.':>7} {'diag(s)':>8} {'degraded':>8} {'crashed':>7}"
    )
    lines = [f"Sweep over {points[0].parameter}:", header]
    for point in points:
        row = point.row()
        lines.append(
            f"  {str(row['value']):>8} {row['precision']:>8.1%} {row['recall']:>6.1%}"
            f" {row['accuracy']:>8.1%} {row['false_positives']:>4d}"
            f" {row['interference_detected']:>7d} {row['diag_mean_s']:>8.2f}"
            f" {row['degraded_verdicts']:>8d} {row['crashed_runs']:>7d}"
        )
    return "\n".join(lines)
