"""Figure 2 — mining the rolling upgrade process model from logs.

The paper discovered Fig. 2 by collecting Asgard logs of successful
upgrades, clustering lines, deriving regexes, tagging, and running
discovery.  This test reproduces the pipeline end to end on logs
generated by real (simulated) upgrade runs and verifies the mined model
matches the hand-authored reference: same activities, edges covering the
loop, and perfect replay fitness on the training traces.
"""

import pytest

from repro.logsys.record import LogStream
from repro.operations.rolling_upgrade import (
    build_pattern_library,
    reference_process_model,
)
from repro.process.compiled import CompiledReplayer
from repro.process.mining.cluster import cluster_lines
from repro.process.mining.dfg import DirectlyFollowsGraph
from repro.process.mining.discovery import discover_model
from repro.process.mining.regexgen import derive_pattern
from repro.testbed import Testbed


def collect_training_traces(n_runs=5):
    """Run successful upgrades and extract activity traces + raw lines."""
    library = build_pattern_library()
    traces = []
    raw_lines = []
    for seed in range(n_runs):
        testbed = Testbed(cluster_size=4, seed=500 + seed)
        testbed.run_upgrade(trace_id=f"train-{seed}")
        trace = []
        for record in testbed.stream.records:
            raw_lines.append(record.message)
            classification = library.classify(record.message)
            if classification.matched and not classification.pattern.is_error:
                trace.append(classification.activity)
        traces.append(trace)
    return traces, raw_lines


@pytest.fixture(scope="module")
def training_data():
    return collect_training_traces()


def test_fig2_discovery(training_data):
    traces, _ = training_data

    dfg = DirectlyFollowsGraph.from_traces(traces)
    model = discover_model(dfg, model_id="mined-rolling-upgrade")

    reference = reference_process_model()
    assert set(model.activities) == set(reference.activities)
    # The loop-back edge of Fig. 2 must be rediscovered.
    assert ("new_instance_ready", "remove_deregister_old_instance") in model.edges
    # Every training trace replays perfectly on the mined model.
    for index, trace in enumerate(traces):
        instance = CompiledReplayer(model).instance_for(f"t{index}")
        for activity in trace:
            assert instance.replay(activity)
        assert instance.fitness() == 1.0

    print("\nFigure 2 — mined process model of rolling upgrade")
    print(f"  activities ({len(model.activities)}): {sorted(model.activities)}")
    print(f"  edges ({len(model.edges)}):")
    for source, target in sorted(model.edges):
        print(f"    {source} -> {target}")
    print(f"  loop edges: {dfg.loop_edges()}")


def test_fig2_clustering_and_regex(training_data):
    """The preprocessing half: cluster raw lines, derive regexes, verify
    they classify the training lines."""
    _, raw_lines = training_data
    interesting = [l for l in raw_lines if "DEBUG" not in l][:400]

    clusters = cluster_lines(interesting)
    # One cluster per log template: the upgrade has 9 activity templates
    # (plus the odd skip/exception line on some seeds).
    assert 8 <= len(clusters) <= 14
    patterns = [derive_pattern(c) for c in clusters]
    for pattern, cluster in zip(patterns, clusters):
        for line in cluster.lines[:20]:
            assert pattern.match(line) is not None

    print(f"\n  {len(interesting)} lines -> {len(clusters)} clusters:")
    for cluster in clusters:
        print(f"    [{len(cluster.lines):4d}] {cluster.name}: {cluster.representative[:70]}")
