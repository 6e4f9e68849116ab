"""Figure 6 — distribution of error diagnosis time.

Paper: range 1.29-10.44 s, mean 2.30 s, 95% of diagnoses within 3.83 s.
The seed-2014 row is pinned exactly (to 2 decimals), so it cannot drift
unnoticed; the bands below it are the comparison with the paper: a
right-skewed seconds-scale distribution whose mass sits between ~1 and
~5 seconds, with mean within a factor of ~1.5 of the paper's and a
sub-8-second 95th percentile.
"""

import statistics

from repro.evaluation.figures import diagnosis_time_distribution, render_fig6


def test_fig6_distribution(campaign_metrics):
    times = campaign_metrics.diagnosis_times
    stats = campaign_metrics.diagnosis_time_stats()
    print()
    print(render_fig6(campaign_metrics))

    # The measured row, both directions.
    assert len(times) == 907
    assert {name: round(value, 2) for name, value in stats.items()} == {
        "min": 0.70, "mean": 2.51, "p95": 3.66, "max": 4.62,
    }

    # Shape assertions vs the paper's numbers.
    assert 0.4 <= stats["min"] <= 2.0  # paper: 1.29 s
    assert 1.5 <= stats["mean"] <= 3.5  # paper: 2.30 s
    assert stats["p95"] <= 8.0  # paper: 3.83 s
    assert stats["max"] <= 15.0  # paper: 10.44 s
    # Right-skewed: mean above median.
    assert stats["mean"] >= statistics.median(times) * 0.95


def test_fig6_histogram_mass(campaign_metrics):
    histogram = dict(diagnosis_time_distribution(campaign_metrics.diagnosis_times))
    total = sum(histogram.values())
    within_5s = sum(count for label, count in histogram.items() if label in ("0-1s", "1-2s", "2-3s", "3-4s", "4-5s"))
    assert within_5s / total >= 0.85, "the bulk of diagnoses finish within 5 s"


def test_fig6_detection_latency(campaign_metrics):
    """Not a paper figure, but its motivating claim: Asgard may take up
    to 70 minutes to report a provisioning failure; POD detects within
    the watchdog/assertion granularity."""
    latencies = campaign_metrics.detection_latencies
    assert latencies
    mean_latency = statistics.fmean(latencies)
    print(f"\n  detection latency: mean {mean_latency:.0f}s, max {max(latencies):.0f}s"
          f" (Asgard baseline: up to 4200s)")
    assert mean_latency < 600.0
    assert max(latencies) < 4200.0
