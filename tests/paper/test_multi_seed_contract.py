"""A contract over seeds (ROADMAP item 1(f), first two rungs).

Seed 2014 is pinned by every other file in this directory, and its case
here reads the session's campaign (``conftest.py``); seeds 1, 7, 31 and
42 were pinned by running the same 160-run campaign at ``4f86396``,
and 123 and 9001 at ``8217f4e``; together they are ROADMAP's reviewer
table as a test.  All but seed 31 were re-pinned when a fault due after
the upgrade's end began to fire on the upgrade's last log line, instead
of the run being rerun with an earlier injection (CHANGES.md names the
moved runs).  Recall = 100 % and no crashed run
are the paper's contract on any seed; TP / FP / correct diagnoses are
exact because the campaign is deterministic, so a change that claims "no
verdict moved" is checked on five seeds, not one.

Second rung (item 1(h)): the one hardened client is free when the API
plane is healthy.  With chaos off no retry is ever denied by the budget
and no verdict is lost to a degraded plane; a breaker *does* trip, but
only where the plane really is failing — inside ``ELB_UNAVAILABLE`` runs,
on the fault's own ``ServiceUnavailable`` — and a call fails fast on the
open breaker only in the runs ``FAST_FAIL_RUNS`` names.

Still open under item 1(f): the by-run §VI.A class of each wrong
diagnosis and non-class-1 FP (it needs item 2(a)'s explanation record).
"""

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import compute_metrics

#: seed -> (TP, FP, correct diagnoses); precision and accuracy follow.
PINNED = {
    2014: (208, 5, 213),  # precision 97.65 %, accuracy 100.0 % (the contract seed)
    1: (209, 15, 223),   # precision 93.30 %, accuracy 99.55 %
    7: (213, 6, 217),    # precision 97.26 %, accuracy 99.09 %
    31: (208, 4, 212),   # precision 98.11 %, accuracy 100.0 %
    42: (206, 9, 214),   # precision 95.81 %, accuracy 99.53 %
    123: (211, 5, 214),  # precision 97.69 %, accuracy 99.07 %
    9001: (201, 0, 200), # precision 100.0 %, accuracy 99.50 %
}

#: seed -> the runs whose reported events (detected fault, detected
#: interference, false positives) outnumber their correct diagnoses.  In
#: the four with both a random termination and account pressure
#: (``instance_type_changed-19``, ``sg_unavailable-10``,
#: ``elb_unavailable-13``, ``keypair_wrong-11``) the termination is the
#: wrong one: ``attributed_reports`` groups a report under the first truth
#: it fits, so reports confirming ``account-limit-exceeded`` land under the
#: termination, which is scored correct only when none of its reports
#: confirms anything (EXPERIMENTS, "Seed 9001's wrong diagnosis").
WRONG_RUNS = {
    2014: set(),
    1: {"ami_unavailable-14"},
    7: {"ami_changed-01", "instance_type_changed-19"},
    31: set(),
    42: {"sg_unavailable-10"},
    123: {"elb_unavailable-13", "instance_type_changed-11"},
    9001: {"keypair_wrong-11"},
}

#: seed -> the runs in which a call failed fast on an open breaker.  Each
#: is an ``ELB_UNAVAILABLE`` run whose fault fires on the upgrade's
#: completion line: the last batch's assertions all ask the ELB that just
#: went away, the breaker opens on the fault's own ``ServiceUnavailable``
#: and the asks after it fail fast.  No verdict is lost to it: the
#: degraded-verdict count below stays 0.
FAST_FAIL_RUNS = {
    2014: set(),
    1: {"elb_unavailable-02", "elb_unavailable-04"},
    7: {"elb_unavailable-04"},
    31: set(),
    42: set(),
    123: set(),
    9001: {"elb_unavailable-01"},
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_paper_campaign_at_another_seed(seed, request):
    if seed == 2014:
        # The session's own campaign (conftest.py), not a second run of it.
        outcomes = request.getfixturevalue("campaign_outcomes")
    else:
        outcomes = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=seed)).run()
    metrics = compute_metrics(outcomes)
    tp, fp, correct = PINNED[seed]

    assert metrics.failed_runs == 0
    assert metrics.faults_injected == 160
    assert metrics.recall == 1.0, "every injected fault must be detected on every seed"

    assert (metrics.tp, metrics.false_positives, metrics.correct_diagnoses) == (tp, fp, correct)
    assert metrics.precision == pytest.approx(tp / (tp + fp))
    assert metrics.accuracy_rate == pytest.approx(correct / (tp + fp))
    # The paper's own bands hold on every seed, not only on 2014.
    assert metrics.precision >= 0.90
    assert metrics.accuracy_rate >= 0.96

    wrong = set()
    for outcome in outcomes:
        alone = compute_metrics([outcome])
        if alone.tp + alone.false_positives > alone.correct_diagnoses:
            wrong.add(outcome.spec.run_id)
    assert wrong == WRONG_RUNS[seed]

    # Hardening is free when the plane is healthy — stated as what is true.
    assert sum(outcome.api_health["budget_denials"] for outcome in outcomes) == 0
    fast_failed = {o.spec.run_id for o in outcomes if o.api_health["breaker_fast_fails"]}
    assert fast_failed == FAST_FAIL_RUNS[seed]
    assert sum(outcome.degraded_verdicts for outcome in outcomes) == 0
    # Runs with a trip: 1 / 4 / 3 / 1 / 2 / 1 / 1 on seeds 2014 / 1 / 7 / 31 / 42 / 123 / 9001.
    tripped = {o.spec.fault_type for o in outcomes if o.api_health["breaker_trips"]}
    assert tripped <= {"ELB_UNAVAILABLE"}, f"breaker tripped on a healthy plane: {tripped}"
