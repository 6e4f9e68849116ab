"""A contract over seeds (ROADMAP item 1(f), first two rungs).

Seed 2014 is pinned by every other file in this directory; seeds 1, 7,
31 and 42 were pinned by running the same 160-run campaign at ``4f86396``,
and 123 and 9001 at ``8217f4e``; together they are ROADMAP's reviewer
table as a test.  Recall = 100 % and no crashed run
are the paper's contract on any seed; TP / FP / correct diagnoses are
exact because the campaign is deterministic, so a change that claims "no
verdict moved" is checked on five seeds, not one.

Second rung (item 1(h)): the one hardened client is free when the API
plane is healthy.  With chaos off no retry is ever denied by the budget,
no call fails fast on an open breaker and no verdict is lost to a
degraded plane; a breaker *does* trip, but only where the plane really is
failing — inside ``ELB_UNAVAILABLE`` runs, on the fault's own
``ServiceUnavailable``.

Still open under item 1(f): the by-run §VI.A class of each wrong
diagnosis and non-class-1 FP (it needs item 2(a)'s explanation record).
"""

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.metrics import compute_metrics

#: seed -> (TP, FP, correct diagnoses); precision and accuracy follow.
PINNED = {
    2014: (207, 5, 212),  # precision 97.64 %, accuracy 100.0 % (the contract seed)
    1: (208, 15, 222),   # precision 93.27 %, accuracy 99.55 %
    7: (211, 6, 215),    # precision 97.24 %, accuracy 99.08 %
    31: (208, 4, 212),   # precision 98.11 %, accuracy 100.0 %
    42: (205, 9, 213),   # precision 95.79 %, accuracy 99.53 %
    123: (210, 5, 213),  # precision 97.67 %, accuracy 99.07 %
    9001: (200, 0, 199), # precision 100.0 %, accuracy 99.50 %
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


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_paper_campaign_at_another_seed(seed):
    campaign = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=seed))
    outcomes = campaign.run()
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
    assert sum(outcome.api_health["breaker_fast_fails"] for outcome in outcomes) == 0
    assert sum(outcome.degraded_verdicts for outcome in outcomes) == 0
    # Runs with a trip: 0 / 6 / 9 / 1 / 1 / 1 / 0 on seeds 2014 / 1 / 7 / 31 / 42 / 123 / 9001.
    tripped = {o.spec.fault_type for o in outcomes if o.api_health["breaker_trips"]}
    assert tripped <= {"ELB_UNAVAILABLE"}, f"breaker tripped on a healthy plane: {tripped}"
