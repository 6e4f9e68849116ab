"""Tests for the offline process-mining pipeline (§III.A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.process.compiled import CompiledReplayer
from repro.process.mining.cluster import cluster_lines, mask_line, similarity
from repro.process.mining.dfg import DirectlyFollowsGraph
from repro.process.mining.discovery import discover_model
from repro.process.mining.regexgen import derive_pattern, derive_regex


class TestMasking:
    def test_ids_masked_by_type(self):
        line = "Pushing ami-750c9e4f onto i-7df34041 in asg-dsn"
        masked = mask_line(line)
        assert "<AMI>" in masked and "<INSTANCE>" in masked and "<ASG>" in masked

    def test_numbers_and_timestamps_masked(self):
        masked = mask_line("[2013-10-24 11:41:48,312] 4 of 4 done")
        assert "<TIME>" in masked
        assert "<NUM> of <NUM> done" in masked

    def test_same_template_masks_identically(self):
        a = mask_line("Instance i-1a ready. 1 of 4 done.")
        b = mask_line("Instance i-ff ready. 3 of 4 done.")
        assert a == b


class TestSimilarity:
    def test_identical_templates_score_one(self):
        assert similarity("Terminating i-aa in asg-x", "Terminating i-bb in asg-x") == 1.0

    def test_unrelated_lines_score_low(self):
        assert similarity("Terminating instance", "Updated launch configuration") < 0.6


class TestClustering:
    LINES = [
        "Instance pm on i-7df34041 is ready for use. 4 of 4 instance relaunches done.",
        "Instance pm on i-00ab3321 is ready for use. 1 of 4 instance relaunches done.",
        "Instance pm on i-99ff0001 is ready for use. 2 of 4 instance relaunches done.",
        "Terminating instance i-7df34041 in group asg-dsn",
        "Terminating instance i-99ff3321 in group asg-dsn",
        "Sorted 4 instances of group asg-dsn for replacement",
    ]

    def test_clusters_by_template(self):
        clusters = cluster_lines(self.LINES)
        sizes = sorted(len(c.lines) for c in clusters)
        assert sizes == [1, 2, 3]

    def test_cluster_names_unique(self):
        clusters = cluster_lines(self.LINES)
        names = [c.name for c in clusters]
        assert len(names) == len(set(names))


class TestRegexDerivation:
    def test_derived_regex_matches_members(self):
        clusters = cluster_lines(TestClustering.LINES)
        for cluster in clusters:
            pattern = derive_pattern(cluster)
            for line in cluster.lines:
                assert pattern.match(line) is not None

    def test_named_groups_extracted(self):
        clusters = cluster_lines(TestClustering.LINES[:3])
        pattern = derive_pattern(clusters[0])
        fields = pattern.match(TestClustering.LINES[1])
        assert fields["instanceid"] == "i-00ab3321"
        assert fields["num"] == "1"
        assert fields["num2"] == "4"

    def test_regex_escapes_literals(self):
        regex = derive_regex("cost is $5 (approx) [really]")
        import re

        assert re.search(regex, "cost is $5 (approx) [really]")


class TestDfg:
    TRACES = [
        ["start", "work", "work", "end"],
        ["start", "work", "end"],
        ["start", "end"],
    ]

    def test_counts(self):
        dfg = DirectlyFollowsGraph.from_traces(self.TRACES)
        assert dfg.trace_count == 3
        assert dfg.edge_counts[("start", "work")] == 2
        assert dfg.edge_counts[("work", "work")] == 1
        assert dfg.activity_counts["work"] == 3

    def test_dominant_start_end(self):
        dfg = DirectlyFollowsGraph.from_traces(self.TRACES)
        assert dfg.dominant_starts() == ["start"]
        assert dfg.dominant_ends() == ["end"]

    def test_loop_edges(self):
        dfg = DirectlyFollowsGraph.from_traces([["a", "b", "a", "b", "c"]])
        assert ("b", "a") in dfg.loop_edges()

    def test_empty_trace_ignored(self):
        dfg = DirectlyFollowsGraph()
        dfg.add_trace([])
        assert dfg.trace_count == 0


class TestDiscovery:
    def test_discovered_model_replays_training_traces(self):
        traces = TestDfg.TRACES
        model = discover_model(DirectlyFollowsGraph.from_traces(traces))
        for index, trace in enumerate(traces):
            instance = CompiledReplayer(model).instance_for(f"t{index}")
            for activity in trace:
                assert instance.replay(activity), (trace, activity)

    def test_discovery_requires_dominant_start(self):
        dfg = DirectlyFollowsGraph.from_traces([["a", "x"], ["b", "x"], ["c", "x"]])
        with pytest.raises(ValueError, match="start"):
            discover_model(dfg)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_discovery_replays_training_set(self, suffixes):
        """Any trace set (normalised to share start/end) is perfectly
        replayed by the model discovered from it."""
        traces = [["BEGIN"] + suffix + ["END"] for suffix in suffixes]
        model = discover_model(DirectlyFollowsGraph.from_traces(traces))
        for index, trace in enumerate(traces):
            instance = CompiledReplayer(model).instance_for(f"t{index}")
            for activity in trace:
                assert instance.replay(activity)
            assert instance.fitness() == 1.0
