"""Baseline comparison: POD-Diagnosis vs orchestrator-only detection.

The paper's §II motivation: with Asgard alone, "the time between the
failure occurring and the report to the operator may be as long as 70
minutes.  Asgard may not recognize some provisioning failures" at all.
This test measures, over the full campaign, when the orchestrator's own
log first shows a failure versus when POD-Diagnosis detects — the
headline *who wins, by what factor* claim of the whole approach.

Expected shape:

- configuration faults (wrong AMI/key/SG/type) are **invisible** to the
  orchestrator — it happily completes the upgrade on the wrong version;
  POD detects every one;
- for resource faults the orchestrator eventually times out (its
  ``wait_timeout`` is 900 s), while POD's watchdog + assertions detect
  several times sooner.

Beside the shape, the seed-2014 campaign's rows are pinned exactly, as
Table I's are, so a number that drifts in either direction fails until
EXPERIMENTS.md's baseline table is re-taken.
"""

import statistics

import pytest

from repro.evaluation.faults import CONFIG_FAULTS, RESOURCE_FAULTS


def test_baseline_detection(campaign_outcomes):
    def analyze():
        rows = {}
        for family, faults in (("config", CONFIG_FAULTS), ("resource", RESOURCE_FAULTS)):
            family_outcomes = [o for o in campaign_outcomes if o.spec.fault_type in faults]
            pod_latencies = [
                o.first_detection_at - o.injected_at
                for o in family_outcomes
                if o.first_detection_at is not None and o.injected_at is not None
            ]
            orchestrator_detected = [
                o for o in family_outcomes if o.orchestrator_detected_at is not None
            ]
            orchestrator_latencies = [
                o.orchestrator_detected_at - o.injected_at
                for o in orchestrator_detected
                if o.injected_at is not None and o.orchestrator_detected_at >= o.injected_at
            ]
            rows[family] = {
                "runs": len(family_outcomes),
                "pod_detected": sum(1 for o in family_outcomes if o.fault_detected),
                "pod_mean_latency": statistics.fmean(pod_latencies) if pod_latencies else None,
                "orch_detected": len(orchestrator_latencies),
                "orch_mean_latency": (
                    statistics.fmean(orchestrator_latencies) if orchestrator_latencies else None
                ),
            }
        return rows

    rows = analyze()
    # Seed 2014, measured.  Paper: the orchestrator alone may take "as long
    # as 70 minutes" to report a failure, and may not recognize some at all.
    measured = {
        family: (row["runs"], row["pod_detected"], row["orch_detected"])
        for family, row in rows.items()
    }
    assert measured == {"config": (80, 80, 5), "resource": (80, 80, 72)}
    assert rows["config"]["pod_mean_latency"] == pytest.approx(72.64, abs=5e-3)
    assert rows["config"]["orch_mean_latency"] == pytest.approx(786.75, abs=5e-3)
    assert rows["resource"]["pod_mean_latency"] == pytest.approx(126.83, abs=5e-3)
    assert rows["resource"]["orch_mean_latency"] == pytest.approx(730.86, abs=5e-3)

    print("\nBaseline — POD-Diagnosis vs orchestrator-only detection")
    print(f"  {'fault family':<10} {'runs':>5} {'POD det.':>9} {'POD mean':>9}"
          f" {'orch det.':>10} {'orch mean':>10}")
    for family, row in rows.items():
        pod_mean = f"{row['pod_mean_latency']:.0f}s" if row["pod_mean_latency"] else "-"
        orch_mean = f"{row['orch_mean_latency']:.0f}s" if row["orch_mean_latency"] else "never"
        print(f"  {family:<10} {row['runs']:>5} {row['pod_detected']:>9} {pod_mean:>9}"
              f" {row['orch_detected']:>10} {orch_mean:>10}")

    config = rows["config"]
    resource = rows["resource"]
    # POD detects everything in both families.
    assert config["pod_detected"] == config["runs"]
    assert resource["pod_detected"] == resource["runs"]
    # The orchestrator misses most configuration faults outright ("Asgard
    # may not recognize some provisioning failures") — any exceptions it
    # does log in config runs come from concurrent interference breaking
    # the run, not from the fault.
    assert config["orch_detected"] <= config["runs"] // 2
    # On resource faults the orchestrator *can* notice (timeouts,
    # deregister failures), but POD is decisively faster on average.
    assert resource["orch_mean_latency"] is not None
    assert resource["pod_mean_latency"] is not None
    assert resource["pod_mean_latency"] < resource["orch_mean_latency"]


def test_baseline_speedup_factor(campaign_outcomes):
    """Per-run speedup where both detected: POD beats the orchestrator in
    (nearly) every run, typically by several-fold."""

    def speedups():
        values = []
        for o in campaign_outcomes:
            if (
                o.injected_at is None
                or o.first_detection_at is None
                or o.orchestrator_detected_at is None
                or o.orchestrator_detected_at <= o.injected_at
            ):
                continue
            pod = max(1e-6, o.first_detection_at - o.injected_at)
            orchestrator = o.orchestrator_detected_at - o.injected_at
            values.append(orchestrator / pod)
        return values

    values = speedups()
    assert values, "some runs must have both detection signals"
    # v == 1.0 is a tie: POD's conformance detection fires on the very
    # exception line the orchestrator logged — same instant, not later.
    wins = sum(1 for v in values if v >= 1.0)
    print(f"\n  runs with both signals: {len(values)};"
          f" POD earlier in {wins} ({wins / len(values):.0%});"
          f" median speedup {statistics.median(values):.1f}x")
    assert wins / len(values) >= 0.9
    assert statistics.median(values) >= 2.0
    # Seed 2014, measured: POD at or before the orchestrator in all 77.
    assert (len(values), wins) == (77, 77)
    assert statistics.median(values) == pytest.approx(4.744, abs=5e-4)
