"""Parameter sweeps: sensitivity of the §V results to the knobs.

The paper evaluates one configuration (8 faults x 20 runs, clusters of 4
and 20, fixed timeout calibration).  A reproduction can ask the questions
the paper could not afford testbed-hours for:

- how do precision/recall respond to the watchdog calibration?
- how does diagnosis degrade as concurrent interference intensifies?
- does cluster size (and hence batch size k) change the picture?

Each sweep runs a reduced campaign per point and returns structured
:class:`SweepPoint` rows that benches and reports can render.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cloud.chaos import CHAOS_LEVELS
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


def _run_campaign(config: CampaignConfig, max_workers: int | None = None) -> CampaignMetrics:
    campaign = Campaign(config)
    campaign.run(max_workers=max_workers)
    return compute_metrics(campaign.outcomes)


def sweep_interference(
    rates: _t.Sequence[float] = (0.0, 0.25, 0.5),
    runs_per_fault: int = 3,
    seed: int = 7001,
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """Scale all three interference probabilities together.

    ``rate`` is the scale-in probability; random termination and account
    pressure follow at half and a quarter of it respectively (preserving
    the default mix's proportions).
    """
    points = []
    for rate in rates:
        config = CampaignConfig(
            runs_per_fault=runs_per_fault,
            large_cluster_runs=0,
            seed=seed,
            p_scale_in=rate,
            p_random_termination=rate / 2,
            p_account_pressure=rate / 4,
        )
        points.append(SweepPoint("interference_rate", rate, _run_campaign(config, max_workers)))
    return points


def sweep_cluster_size(
    sizes: _t.Sequence[int] = (4, 20),
    runs_per_fault: int = 2,
    seed: int = 7002,
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """All-small vs all-large campaigns (batch size follows the paper)."""
    points = []
    for size in sizes:
        config = CampaignConfig(
            runs_per_fault=runs_per_fault,
            large_cluster_runs=runs_per_fault if size == 20 else 0,
            cluster_small=size if size != 20 else 4,
            seed=seed,
        )
        points.append(SweepPoint("cluster_size", size, _run_campaign(config, max_workers)))
    return points


def sweep_transient_rate(
    rates: _t.Sequence[float] = (0.0, 0.5),
    runs_per_fault: int = 3,
    seed: int = 7003,
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """How much do transient (inject-then-revert) faults hurt accuracy?

    The paper's third wrong-diagnosis class scales with this rate: the
    monitor misses short flaps, so diagnosis quality degrades.
    """
    points = []
    for rate in rates:
        config = CampaignConfig(
            runs_per_fault=runs_per_fault,
            large_cluster_runs=0,
            seed=seed,
            p_transient=rate,
            p_scale_in=0.0,
            p_random_termination=0.0,
            p_account_pressure=0.0,
        )
        points.append(SweepPoint("transient_rate", rate, _run_campaign(config, max_workers)))
    return points


def sweep_chaos(
    levels: _t.Sequence[str] = CHAOS_LEVELS,
    runs_per_fault: int = 3,
    seed: int = 7004,
    max_workers: int | None = None,
) -> list[SweepPoint]:
    """Diagnosis quality vs API-plane health (none → severe chaos).

    Every point runs the same seeded campaign under a different chaos
    profile, so precision/recall/diagnosis-time can be read against the
    API-health counters (retries, timeouts, breaker trips) the chaotic
    plane produced.  The degradation contract under test: quality may
    drop to *inconclusive* — crashed runs mean the contract is broken.
    """
    points = []
    for level in levels:
        config = CampaignConfig(
            runs_per_fault=runs_per_fault,
            large_cluster_runs=0,
            seed=seed,
            chaos_profile=level,
        )
        points.append(SweepPoint("chaos_profile", level, _run_campaign(config, max_workers)))
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
