"""Every diagnosis of the paper campaign replays from its own record.

The walk (``repro.diagnosis.walk``) is a function of the instantiated
trees and the observations it is sent (ROADMAP item 7).  A report records
each test's raw observation (``TestExecution.observed``, ``evidence``,
``degraded``), so sending a fresh walk over the same roots the report's
looked-at tests, in order, must give back the report itself: its root
causes, its whole test sequence (node, verdict, reused or not) and, as the
number of excluded verdicts in that sequence, its excluded count.  Checked
here for every report of every run of the seed-2014 campaign.
"""

import pytest

from repro.diagnosis import engine as engine_module
from repro.diagnosis.walk import walk
from repro.evaluation import campaign as campaign_module
from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.faulttree.tree import EXCLUDED


def replay(roots, since, report):
    """Drive a fresh walk from ``report``'s recorded observations.

    An unresolved ``$var`` is decided by the walk before any look, so the
    tests it asks for are the report's uncached, resolved ones.
    """
    looked = iter(t for t in report.tests if not t.cached and "unresolved" not in t.evidence)
    steps = walk(roots, since)
    observation = None
    try:
        while True:
            look = steps.send(observation)
            recorded = next(looked)
            assert recorded.node_id == look.node.node_id
            observation = recorded.observed, recorded.evidence, recorded.degraded
    except StopIteration as done:
        assert next(looked, None) is None, "the replay asked for fewer looks than were made"
        return done.value


def record(causes, tests, excluded):
    return (
        causes,
        [(t.node_id, t.test_name, t.verdict, t.cached, t.observed, t.evidence, t.degraded) for t in tests],
        excluded,
    )


@pytest.fixture(scope="module")
def campaign_replayed():
    """``(outcomes, [(run id, report's record, replayed record)])``."""
    finished = []  # (roots, since) of each walk, in the order walks returned
    replayed = []

    def recording_walk(roots, since):
        result = yield from walk(roots, since)
        finished.append((roots, since))
        return result

    original_run_on = campaign_module._run_on

    def run_on_then_replay(testbed, spec):
        outcome = original_run_on(testbed, spec)
        # A report completes in the step its walk returns, so the two
        # sequences align one to one.
        for (roots, since), report in zip(finished, testbed.pod.reports, strict=True):
            expected = record(report.root_causes, report.tests, report.excluded_count)
            causes, tests = replay(roots, since, report)
            excluded = sum(t.verdict == EXCLUDED for t in tests)
            replayed.append((spec.run_id, expected, record(causes, tests, excluded)))
        finished.clear()
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "walk", recording_walk)
        patch.setattr(campaign_module, "_run_on", run_on_then_replay)
        outcomes = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014)).run()
    return outcomes, replayed


def test_every_report_replays_from_its_recorded_observations(campaign_replayed):
    outcomes, replayed = campaign_replayed
    assert len(outcomes) == 160 and not any(o.failed for o in outcomes)
    # Each spec runs once, as built: every report replayed is one the
    # campaign kept.
    specs = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014)).build_specs()
    assert [o.spec for o in outcomes] == specs
    assert len(replayed) == sum(len(o.reports) for o in outcomes) > 900
    assert sum(len(expected[1]) for _run, expected, _replayed in replayed) > 7500
    mismatched = [run for run, expected, again in replayed if expected != again]
    assert mismatched == []
