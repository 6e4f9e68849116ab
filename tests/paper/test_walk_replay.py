"""Every diagnosis of the paper campaign replays from its own record.

The walk (``repro.diagnosis.walk``) is a function of the trees, the
request's parameters, the step and the observations it is sent (ROADMAP
item 7).  A report records its trees, its step and each test's raw
observation (``TestExecution.observed``, ``evidence``, ``degraded``), so a
fresh walk over the registry's own trees, sent the report's looked-at
tests in order, must give back the report itself: its root causes, its
whole test sequence (node, verdict, reused or not) and, as the number of
excluded verdicts in that sequence, its excluded count.  The request's
parameters are the one input captured here that the report does not hold
(ROADMAP item 10).  Checked for every report of every run of the
seed-2014 campaign.

The replays also count, per (tree id, node id), the node's visits and the
root causes it names, confirmed or ``undetermined``: the coverage table
(ROADMAP item 24).  A fault-tree node is data, so the reachability test
cannot see a sub-tree no run enters.  Each node the campaign never
visits, and each leaf it never confirms, needs a row in the coverage
table (``tests/paper/coverage.py``) saying why it is kept; so does each
``EXPECTED_ROOT_CAUSE`` id or ``CATALOG`` key that no node confirms.  A
missing row fails, and so does a stale one.  The table's leaf rows, for
leaves with no ``CATALOG`` row, are ``tests/recovery/test_plan.py``'s.
"""

import collections
import pathlib

import pytest

from repro.diagnosis import engine as engine_module
from repro.diagnosis import walk as walk_module
from repro.diagnosis.walk import walk
from repro.evaluation import campaign as campaign_module
from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.faulttree.library import EXPECTED_ROOT_CAUSE, shared_standard_fault_trees
from repro.faulttree.tree import CONFIRMED, EXCLUDED
from repro.recovery.plan import CATALOG
from tests.paper.coverage import COVERAGE, KINDS

ROOT = pathlib.Path(__file__).resolve().parents[2]


def replay(registry, params, report):
    """Drive a fresh walk from ``report``'s recorded observations.

    An unresolved ``$var`` is decided by the walk before any look, so the
    tests it asks for are the report's uncached, resolved ones.
    """
    looked = iter(t for t in report.tests if not t.cached and "unresolved" not in t.evidence)
    roots = [registry.get(tree_id).root for tree_id in report.tree_ids]
    since = float(params.get("since", 0.0) or 0.0)
    steps = walk(roots, params, report.step, since)
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


def counting(coverage):
    """A ``walk._visit`` for one walk that counts into ``coverage``, per
    (tree id, node id): ``visited``, and the node's own root cause by
    status.  A walk visits its trees one after another."""
    registry = shared_standard_fault_trees()
    trees = {id(registry.get(tree_id).root): tree_id for tree_id in registry.tree_ids()}
    current = None
    visit = walk_module._visit

    def counted(state, node):
        nonlocal current
        tree_id = current = trees.get(id(node), current)
        causes = yield from visit(state, node)
        counts = coverage[tree_id, node.node_id]
        counts["visited"] += 1
        for cause in causes:
            if cause.node_id == node.node_id:
                counts[cause.status] += 1
        return causes

    return counted


@pytest.fixture(scope="module")
def campaign_replayed():
    """``(outcomes, [(run id, report's record, replayed record)], coverage)``."""
    finished = []  # the params of each walk, in the order walks returned
    replayed = []
    coverage = collections.defaultdict(collections.Counter)

    def recording_walk(roots, params, step, since):
        result = yield from walk(roots, params, step, since)
        finished.append(params)
        return result

    original_run_on = campaign_module._run_on

    def run_on_then_replay(testbed, spec):
        outcome = original_run_on(testbed, spec)
        # A report completes in the step its walk returns, so the two
        # sequences align one to one.
        for params, report in zip(finished, testbed.pod.reports, strict=True):
            expected = record(report.root_causes, report.tests, report.excluded_count)
            with pytest.MonkeyPatch.context() as counted:
                counted.setattr(walk_module, "_visit", counting(coverage))
                causes, tests = replay(testbed.pod.trees, params, report)
            excluded = sum(t.verdict == EXCLUDED for t in tests)
            replayed.append((spec.run_id, expected, record(causes, tests, excluded)))
        finished.clear()
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_module, "walk", recording_walk)
        patch.setattr(campaign_module, "_run_on", run_on_then_replay)
        outcomes = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014)).run()
    return outcomes, replayed, coverage


def test_every_report_replays_from_its_recorded_observations(campaign_replayed):
    outcomes, replayed, _coverage = campaign_replayed
    assert len(outcomes) == 160 and not any(o.failed for o in outcomes)
    # Each spec runs once, as built: every report replayed is one the
    # campaign kept.
    specs = Campaign(CampaignConfig(runs_per_fault=20, large_cluster_runs=4, seed=2014)).build_specs()
    assert [o.spec for o in outcomes] == specs
    assert len(replayed) == sum(len(o.reports) for o in outcomes) > 900
    assert sum(len(expected[1]) for _run, expected, _replayed in replayed) > 7500
    mismatched = [run for run, expected, again in replayed if expected != again]
    assert mismatched == []


def needs_a_row(coverage) -> tuple[set[str], set[str]]:
    """The :data:`COVERAGE` keys the campaign's ``coverage`` calls for, and
    the trees' leaf ids (whose bare rows the catalog test owns)."""
    registry = shared_standard_fault_trees()
    needed, confirmed, leaves = set(), set(), set()
    for tree_id in registry.tree_ids():
        for node in registry.get(tree_id).root.iter_nodes():
            counts = coverage.get((tree_id, node.node_id), {})
            if counts.get(CONFIRMED):
                confirmed.add(node.node_id)
            if node.is_leaf:
                leaves.add(node.node_id)
            if not counts.get("visited") or (node.is_leaf and not counts.get(CONFIRMED)):
                needed.add(f"{tree_id}/{node.node_id}")
    for cause in set().union(*EXPECTED_ROOT_CAUSE.values(), CATALOG) - confirmed:
        # A never-confirmed leaf is already named by its nodes' rows.
        if not any(key.endswith(f"/{cause}") for key in needed):
            needed.add(cause)
    return needed, leaves


def test_every_node_the_campaign_misses_has_a_row(campaign_replayed):
    _outcomes, _replayed, coverage = campaign_replayed
    for (tree_id, node_id), counts in sorted(coverage.items()):
        print(f"{tree_id:20s} {node_id:32s} visited {counts['visited']:4d}"
              f"  confirmed {counts[CONFIRMED]:4d}  undetermined {counts['undetermined']:3d}")
    needed, leaves = needs_a_row(coverage)
    rows = set(COVERAGE) - leaves
    assert sorted(needed - rows) == [], "missing rows"
    assert sorted(rows - needed) == [], "stale rows: the campaign now covers them"


@pytest.mark.parametrize("key", list(COVERAGE))
def test_coverage_row_is_well_formed(key):
    kind, where, why = COVERAGE[key]
    assert kind in KINDS, f"{key}: {kind!r} is not one of {sorted(KINDS)}"
    path, _, test = where.partition("::")
    assert (ROOT / path).is_file(), f"{key}: {path} does not exist"
    assert not test or f"def {test}(" in (ROOT / path).read_text(), f"{key}: no {test} in {path}"
    assert why, key
