"""Table I + headline numbers — the full fault-injection campaign.

Table I defines precision of detection, recall of detection and the
accuracy rate of diagnosis; the abstract reports recall 100%, precision
91.95%, accuracy 96.55-97.13%, and 46 detected interferences.  Every
number in EXPERIMENTS.md's headline table is asserted here two-sided:
the paper's contract as a lower bound (recall 1.0, precision >= 0.90
overall and >= 0.80 per fault type, accuracy >= 0.75 per fault type) and
the seeded campaign's measured value exactly, so a number that drifts in
either direction — including *past* the paper's — fails until
EXPERIMENTS.md ("Where and why we deviate") is re-taken.
"""

import pytest

from repro.evaluation.figures import render_fig7, render_headline

#: Seed-2014 false positives by fault type (everything else carries 0):
#: three `asg-has-n-running-instances` and two
#: `asg-has-n-new-version-instances` watchdog reports, each "No root
#: cause identified" — the paper's late-log class.
FALSE_POSITIVES = {
    "AMI_CHANGED": 2,
    "INSTANCE_TYPE_CHANGED": 1,
    "AMI_UNAVAILABLE": 1,
    "ELB_UNAVAILABLE": 1,
}


def test_table1_metrics(campaign_metrics):
    metrics = campaign_metrics

    # Recall of detection: the paper detected all 160 injected faults.
    assert metrics.faults_injected == 160
    assert metrics.recall == 1.0, "every injected fault must be detected"

    # Accuracy rate of diagnosis: paper 96.55-97.13%; measured above the
    # paper's band (every one of the 213 detections diagnosed correctly).
    assert metrics.correct_diagnoses == 213
    assert metrics.accuracy_rate == 1.0

    # Interference: the paper detected 46 events across its runs.
    assert metrics.interference_events == 61
    assert metrics.interference_detected == 48

    print("\nTable I — evaluation metrics (paper -> measured)")
    print(f"  TPdet (faults + interference): {160 + 46} -> {metrics.tp}")
    print(f"  FPdet: ~14 -> {metrics.false_positives}")
    print(f"  FNdet: 0 -> {metrics.faults_injected - metrics.faults_detected}")
    print(f"  Precision  = TP/(TP+FP): 91.95% -> {metrics.precision:.2%}")
    print(f"  Recall     = TP/(TP+FN): 100%   -> {metrics.recall:.2%}")
    print(f"  AccuracyRate = Numcorrect/(TP+FP): 96.55-97.13% -> {metrics.accuracy_rate:.2%}")


def test_table1_precision_band(campaign_metrics):
    # Precision: >90% (the paper's FPs are the timer-timeout class only);
    # measured 208 / (208 + 5), 5.7 points above the paper's 91.95 %.
    assert campaign_metrics.precision >= 0.90
    assert campaign_metrics.tp == 208
    assert campaign_metrics.false_positives == 5
    assert campaign_metrics.precision == pytest.approx(0.9765, abs=5e-5)


def test_headline(campaign_metrics):
    print()
    print(render_headline(campaign_metrics))
    stats = campaign_metrics.diagnosis_time_stats()
    # Online diagnosis at seconds scale (paper: mean 2.30s, 95% <= 3.83s).
    assert stats["mean"] < 5.0
    assert stats["p95"] < 8.0


def test_fig7_per_fault_type(campaign_metrics):
    """Fig. 7: per-fault-type precision/recall/accuracy columns."""
    print()
    print(render_fig7(campaign_metrics))
    assert len(campaign_metrics.per_fault) == 8
    for fault_type, bucket in campaign_metrics.per_fault.items():
        assert bucket.runs == 20
        assert bucket.recall == 1.0, f"{fault_type}: recall must be 100%"


def test_fig7_per_fault_bands(campaign_metrics):
    for fault_type, bucket in campaign_metrics.per_fault.items():
        assert bucket.precision >= 0.80, f"{fault_type}: precision collapsed"
        assert bucket.accuracy_rate >= 0.75, f"{fault_type}: accuracy collapsed"
        # Measured: worst column is AMI_CHANGED at 28 / 30 = 93.3 %.
        assert bucket.precision >= 0.93, f"{fault_type}: precision below measured floor"
        assert bucket.fp == FALSE_POSITIVES.get(fault_type, 0), f"{fault_type}: FP count moved"
        assert bucket.accuracy_rate == 1.0, f"{fault_type}: a diagnosis went wrong"


#: Provisioning runs the engine to t = 300 s; each spec's fault is armed
#: then, ``spec.inject_at`` seconds before it is due.
ARMED_AT = 300.0


def test_faults_that_never_manifest(campaign_outcomes):
    """The seed-2014 runs whose fault had no observable effect, and the
    ones among them that fired on the upgrade's terminal line, earlier
    than scheduled: a resource taken away after the last launch
    (``build_specs`` samples ``inject_at`` against an expected duration
    that some upgrades undercut; ROADMAP 1(f))."""
    never = {o.spec.run_id for o in campaign_outcomes if not o.fault_manifested}
    assert never == {
        "ami_unavailable-06", "ami_unavailable-07",
        "keypair_unavailable-03", "keypair_unavailable-12", "keypair_unavailable-18",
        "sg_unavailable-08", "sg_unavailable-20",
    }
    early = {
        o.spec.run_id
        for o in campaign_outcomes
        if o.spec.run_id in never and o.injected_at - ARMED_AT < o.spec.inject_at - 1e-6
    }
    assert early == {"ami_unavailable-06", "keypair_unavailable-03"}
