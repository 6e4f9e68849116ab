"""A compact fault-injection study: the paper's §V campaign, scaled down.

Runs every one of the 8 fault types a few times (with mixed interference,
as in the paper), computes the Table I metrics and renders the Fig. 6/7
outputs.  The full-scale 160-run campaign lives in ``tests/paper/``; this
example keeps the run count small so it finishes in seconds.

Run:  python examples/fault_injection_study.py [runs_per_fault] [workers]

``workers`` fans the runs out across processes (-1 = all cores); the
results are bit-for-bit identical at any worker count.
"""

import sys

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.figures import render_fig6, render_fig7, render_headline
from repro.evaluation.metrics import compute_metrics


def main(runs_per_fault: int = 4, workers: int = 1) -> None:
    config = CampaignConfig(
        runs_per_fault=runs_per_fault,
        large_cluster_runs=max(1, runs_per_fault // 5),
        seed=2014,
    )
    campaign = Campaign(config)
    total = runs_per_fault * 8
    print(f"running {total} fault-injection runs"
          f" ({runs_per_fault} per fault type, mixed interference)...\n")

    def progress(index, count, outcome):
        status = "detected" if outcome.fault_detected else "MISSED"
        correct = "+" if outcome.fault_diagnosed_correctly() else "-"
        interference = ",".join(t for t in outcome.truth if t != outcome.spec.fault_type) or "-"
        print(
            f"  [{index:3d}/{count}] {outcome.spec.run_id:26s} n={outcome.spec.cluster_size:<2d}"
            f" {status}/{correct} interference={interference}"
        )

    campaign.run(progress=progress, max_workers=workers)
    metrics = compute_metrics(campaign.outcomes)

    print()
    print(render_headline(metrics))
    print()
    print(render_fig6(metrics))
    print()
    print(render_fig7(metrics))


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 4,
        int(sys.argv[2]) if len(sys.argv) > 2 else 1,
    )
