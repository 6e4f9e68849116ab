"""Evaluation harness: the paper's §V campaign, metrics and figures.

- :mod:`faults` — the 8 injected fault types and their scheduling;
- :mod:`campaign` — run the 8 x 20 fault-injection campaign with mixed
  concurrent interference, collecting per-run outcomes;
- :mod:`parallel` — fan campaign runs out across worker processes with
  bit-for-bit deterministic results and per-run crash isolation;
- :mod:`metrics` — Table I: precision/recall of detection, accuracy rate
  of diagnosis, overall and per fault type (Fig. 7);
- :mod:`figures` — the diagnosis-time distribution (Fig. 6), conformance
  statistics (§V.D) and text renderings of every table/figure.
"""

from repro.evaluation.faults import FAULT_TYPES, FaultPlan, apply_fault
from repro.evaluation.campaign import Campaign, CampaignConfig, RunOutcome, run_single
from repro.evaluation.parallel import execute_run, execute_specs
from repro.evaluation.metrics import (
    CampaignMetrics,
    FaultTypeMetrics,
    compute_metrics,
)
from repro.evaluation.figures import (
    diagnosis_time_distribution,
    render_fig6,
    render_fig7,
    render_headline,
)
from repro.evaluation.sweeps import SweepPoint, render_sweep, sweep

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignMetrics",
    "FAULT_TYPES",
    "FaultPlan",
    "FaultTypeMetrics",
    "RunOutcome",
    "apply_fault",
    "compute_metrics",
    "execute_run",
    "execute_specs",
    "diagnosis_time_distribution",
    "render_fig6",
    "render_fig7",
    "render_headline",
    "render_sweep",
    "run_single",
    "SweepPoint",
    "sweep",
]
