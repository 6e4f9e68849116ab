"""Ablations: what each POD-Diagnosis design choice buys.

The paper motivates four mechanisms; these tests quantify each on the
reproduction:

1. **process-context pruning** (§III.B.4) — diagnosing with vs. without
   pruning by the triggering step;
2. **diagnostic-test result reuse** — the walk's per-walk reuse table;
3. **probability-ordered visits** — checking likely faults first;
4. **watchdog calibration** (§IV's 95th-percentile rule) — false-positive
   rate vs. detection latency across interval settings.
"""

import pytest

from repro.diagnosis.engine import DiagnosisEngine
from repro.diagnosis.walk import walk
from repro.faulttree.library import build_standard_fault_trees
from repro.logsys.storage import CentralLogStorage
from repro.pod.service import PODDiagnosis
from repro.testbed import build_testbed


def make_wrong_ami_testbed(seed=811):
    testbed = build_testbed(cluster_size=4, seed=seed)

    def inject():
        yield testbed.engine.timeout(40)
        rogue = testbed.cloud.api("rogue").register_image("rogue", "v9")["ImageId"]
        testbed.cloud.injector.change_lc_ami("lc-app-v2", rogue)

    testbed.engine.process(inject())
    return testbed


def diagnose_with(testbed, tree_ids, context=None):
    """Run a fresh diagnosis engine over the given trees on a testbed."""
    engine = DiagnosisEngine(
        testbed.engine,
        build_standard_fault_trees(),
        testbed.pod.assertions,
        testbed.pod.probes,
        storage=CentralLogStorage(),
    )
    engine.diagnose(tree_ids, testbed.upgrade.trace_id, context=context, trigger_detail="ablation")
    testbed.engine.run(until=testbed.engine.now + 120)
    return engine.completed[0]


@pytest.fixture(scope="module")
def faulty_testbed():
    testbed = make_wrong_ami_testbed()
    testbed.run_upgrade()
    assert testbed.pod.detections
    return testbed


def test_ablation_context_pruning(faulty_testbed):
    """Pruning by step context cuts the diagnostic tests executed.

    Scenario: the Fig. 5 tree ("system does not have N instances with the
    new version") consulted from the *New instance ready* step — with
    pruning, the update-launch-configuration subtree is never visited.
    Without a context there is no step, so nothing is pruned.
    """
    from repro.process.context import ProcessContext

    context = ProcessContext(
        process_id="rolling-upgrade", trace_id="upgrade-1", step="new_instance_ready"
    )
    with_pruning = diagnose_with(faulty_testbed, ["asg-instance-count"], context=context)
    without_pruning = diagnose_with(faulty_testbed, ["asg-instance-count"], context=None)

    executed = lambda report: sum(1 for t in report.tests if not t.cached)
    print(
        f"\nAblation 1 — context pruning:"
        f"\n  with pruning   : {with_pruning.potential_fault_count} potential faults,"
        f" {executed(with_pruning)} tests, {with_pruning.duration:.2f}s"
        f"\n  without pruning: {without_pruning.potential_fault_count} potential faults,"
        f" {executed(without_pruning)} tests, {without_pruning.duration:.2f}s"
    )
    assert (with_pruning.step, without_pruning.step) == ("new_instance_ready", None)
    assert with_pruning.pruned and not without_pruning.pruned
    assert with_pruning.potential_fault_count <= without_pruning.potential_fault_count
    assert executed(with_pruning) <= executed(without_pruning)
    # Both still find the right root cause — pruning trades work, not
    # correctness, when the context is accurate.
    for report in (with_pruning, without_pruning):
        assert any(c.node_id == "wrong-ami" for c in report.root_causes)


def test_ablation_result_reuse():
    """Shared tests across subtrees are looked at once per walk.

    A timer-triggered failure with weak context may warrant consulting
    both the instance-count tree and the resource-integrity tree; the
    key-pair existence check sits inside the launch-failure subtree *and*
    in the integrity tree.  Driven over observations alone (every
    condition seen, so every subtree is entered), the walk asks for each
    distinct test once and serves each repeat from its reuse table.
    """
    registry = build_standard_fault_trees()
    trees = [registry.get(tree_id) for tree_id in ("asg-instance-count", "resource-integrity")]
    # Every variable bound (to its own name), so no test is unresolved.
    params = {variable: variable for tree in trees for variable in tree.variables}
    requests = 0
    steps = walk([tree.root for tree in trees], params, None, since=0.0)
    try:
        look = next(steps)
        while True:
            requests += 1
            look = steps.send((True, {"node": look.node.node_id}, False))
    except StopIteration as done:
        causes, tests = done.value
    hits = sum(1 for t in tests if t.cached)
    print(
        f"\nAblation 2 — result reuse:"
        f"\n  {len(tests)} test visits, {requests} looked at, {hits} served from reuse"
    )
    assert hits >= 1
    assert requests == len(tests) - hits
    assert causes and not any(t.verdict == "excluded" for t in tests)


def test_ablation_probability_ordering(faulty_testbed):
    """Visiting likely faults first reaches the root cause sooner."""

    def tests_until_confirmed(report):
        for index, test in enumerate(report.tests, start=1):
            node = test.node_id
            if test.verdict == "confirmed" and node.startswith("wrong-"):
                return index
        return len(report.tests)

    def invert(registry):
        for tree_id in registry.tree_ids():
            for node in registry.get(tree_id).root.iter_nodes():
                node.probability = 1.0 - node.probability
        return registry

    first_failure = next(r for r in faulty_testbed.pod.assertions.results if r.failed)

    def run(registry):
        engine = DiagnosisEngine(
            faulty_testbed.engine,
            registry,
            faulty_testbed.pod.assertions,
            faulty_testbed.pod.probes,
            storage=CentralLogStorage(),
        )
        engine.diagnose_assertion_failure(first_failure)
        faulty_testbed.engine.run(until=faulty_testbed.engine.now + 120)
        return engine.completed[0]

    ordered = run(build_standard_fault_trees())
    inverted = run(invert(build_standard_fault_trees()))
    print(
        f"\nAblation 3 — probability ordering (tests until root cause):"
        f"\n  prior-ordered : {tests_until_confirmed(ordered)}"
        f"\n  inverse order : {tests_until_confirmed(inverted)}"
    )
    assert tests_until_confirmed(ordered) <= tests_until_confirmed(inverted)


def test_ablation_watchdog_calibration():
    """§IV's 95th-percentile rule: tighter watchdogs detect stalls sooner
    but false-alarm on slow boots; looser ones are quiet but late."""

    def testbed_watched_at(seed, interval):
        """The shipped testbed, its POD rebuilt with another watchdog
        interval before anything is watched."""
        testbed = build_testbed(cluster_size=4, seed=seed)
        testbed.pod.close()
        testbed.pod = PODDiagnosis(
            testbed.cloud, watchdog_interval=interval, seed=seed, chaos=testbed.chaos
        )
        return testbed

    def sweep(interval):
        false_positives = 0
        for seed in range(6):
            healthy = testbed_watched_at(900 + seed, interval)
            healthy.run_upgrade()
            false_positives += sum(
                1 for d in healthy.pod.detections if d.cause == "timer-timeout"
            )
        stalled = testbed_watched_at(950, interval)
        injected_at = []

        def inject():
            yield stalled.engine.timeout(30)
            stalled.cloud.injector.make_key_pair_unavailable("key-prod")
            injected_at.append(stalled.engine.now)

        stalled.engine.process(inject())
        stalled.run_upgrade()
        latency = min(
            (d.time - injected_at[0] for d in stalled.pod.detections), default=float("inf")
        )
        return false_positives, latency

    results = {interval: sweep(interval) for interval in (110.0, 140.0, 200.0)}
    print("\nAblation 4 — watchdog calibration (6 clean runs + 1 stall each):")
    for interval, (fps, latency) in sorted(results.items()):
        print(f"  interval {interval:5.0f}s: false alarms={fps}, stall detection latency={latency:.0f}s")
    # Tight watchdogs must not detect slower than loose ones.
    assert results[110.0][1] <= results[200.0][1] + 1e-6
    # Loose watchdogs false-alarm at most as often as tight ones.
    assert results[200.0][0] <= results[110.0][0]
