"""Tests for model and fault-tree serialization/export."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faulttree.library import build_standard_fault_trees
from repro.faulttree.serialize import tree_from_dict, tree_to_dict, tree_to_dot
from repro.operations.rolling_upgrade import reference_process_model
from repro.process.model import ProcessModel
from repro.process.serialize import model_from_dict, model_to_dict, model_to_dot


class TestModelRoundTrip:
    def test_reference_model_round_trips(self):
        model = reference_process_model()
        rebuilt = model_from_dict(model_to_dict(model))
        assert rebuilt.model_id == model.model_id
        assert set(rebuilt.activities) == set(model.activities)
        assert sorted(rebuilt.edges) == sorted(model.edges)
        assert rebuilt.start_activities == model.start_activities
        assert rebuilt.end_activities == model.end_activities

    def test_round_trip_is_json_safe(self):
        model = reference_process_model()
        payload = json.dumps(model_to_dict(model))
        rebuilt = model_from_dict(json.loads(payload))
        assert rebuilt.validate() == []

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            model_from_dict({"schema": 99, "model_id": "x"})

    def test_invalid_model_rejected_on_load(self):
        data = model_to_dict(reference_process_model())
        data["start_activities"] = []
        with pytest.raises(ValueError, match="invalid"):
            model_from_dict(data)

    def test_parallel_gateways_preserved(self):
        model = ProcessModel("and-model")
        model.add_edge("a", "b")
        model.add_edge("a", "c")
        model.add_edge("b", "d")
        model.add_edge("c", "d")
        model.mark_start("a")
        model.mark_end("d")
        model.mark_parallel_split("a")
        model.mark_parallel_join("d")
        rebuilt = model_from_dict(model_to_dict(model))
        assert rebuilt.parallel_splits == {"a"}
        assert rebuilt.parallel_joins == {"d"}

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_property_round_trip_preserves_replay(self, length, extra_edges):
        names = [f"s{i}" for i in range(length)]
        model = ProcessModel("prop")
        model.add_sequence(*names)
        for i in range(extra_edges):
            # Loop-backs from the penultimate activity keep the end
            # activity terminal (a structural requirement of the net).
            model.add_edge(names[-2 - i % max(1, length - 2)], names[i % (length - 1)])
        model.mark_start(names[0])
        model.mark_end(names[-1])
        if model.validate():
            return  # a generated back edge made the model unsound; skip
        rebuilt = model_from_dict(model_to_dict(model))
        from repro.process.compiled import CompiledReplayer

        a = CompiledReplayer(model).instance_for("t")
        b = CompiledReplayer(rebuilt).instance_for("t")
        for activity in names:
            assert a.replay(activity) == b.replay(activity)


class TestModelDot:
    def test_dot_shape(self):
        dot = model_to_dot(reference_process_model())
        assert dot.startswith("digraph")
        assert "start_rolling_upgrade" in dot
        assert "->" in dot
        assert dot.rstrip().endswith("}")

    def test_loop_edges_dashed(self):
        dot = model_to_dot(reference_process_model())
        assert "[style=dashed]" in dot

    def test_ids_sanitised(self):
        model = ProcessModel("m")
        model.add_edge("step one", "step-two!")
        model.mark_start("step one")
        model.mark_end("step-two!")
        dot = model_to_dot(model)
        assert "step_one" in dot and "step_two_" in dot


class TestTreeRoundTrip:
    def test_standard_trees_round_trip(self):
        registry = build_standard_fault_trees()
        for tree_id in registry.tree_ids():
            tree = registry.get(tree_id)
            rebuilt = tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))))
            assert rebuilt.tree_id == tree.tree_id
            assert rebuilt.node_count() == tree.node_count()
            original_ids = [n.node_id for n in tree.root.iter_nodes()]
            rebuilt_ids = [n.node_id for n in rebuilt.root.iter_nodes()]
            assert original_ids == rebuilt_ids

    def test_tests_preserved(self):
        tree = build_standard_fault_trees().get("asg-instance-count")
        rebuilt = tree_from_dict(tree_to_dict(tree))
        node = rebuilt.find("wrong-ami")
        assert node.test.kind == "assertion"
        assert node.test.name == "asg-uses-correct-config"
        assert node.test.params == {"field": "ami"}

    def test_outcome_declarations_round_trip(self):
        """What an observation means travels with the tree: the one
        non-default declaration survives JSON, node for node."""
        tree = build_standard_fault_trees().get("asg-instance-count")
        document = json.loads(json.dumps(tree_to_dict(tree)))
        rebuilt = tree_from_dict(document)
        assert [n.test for n in rebuilt.root.iter_nodes()] == [
            n.test for n in tree.root.iter_nodes()
        ]
        assert rebuilt.find("termination-author").test.when_not_observed == "inconclusive"
        assert rebuilt.find("wrong-ami").test.when_not_observed == "excluded"

    def test_document_without_outcome_declarations_loads_with_defaults(self):
        """A tree written before the field existed (its ``confirm_on`` key
        is ignored) means what it always meant."""
        document = tree_to_dict(build_standard_fault_trees().get("resource-integrity"))
        for child in document["root"]["children"]:
            del child["test"]["when_not_observed"]
            child["test"]["confirm_on"] = "fail"
        for leaf in tree_from_dict(document).leaves():
            assert leaf.test.when_not_observed == "excluded"

    def test_step_context_preserved(self):
        tree = build_standard_fault_trees().get("asg-instance-count")
        rebuilt = tree_from_dict(tree_to_dict(tree))
        assert "update_launch_configuration" in rebuilt.find("create-lc-fails").step_context

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            tree_from_dict({"schema": 0})


class TestTreeDot:
    def test_dot_contains_leaves_as_ellipses(self):
        tree = build_standard_fault_trees().get("asg-wrong-version")
        dot = tree_to_dot(tree)
        assert "shape=ellipse" in dot
        assert "shape=box" in dot
        assert "lc_wrong_ami" in dot

    def test_dot_mentions_tests_and_steps(self):
        tree = build_standard_fault_trees().get("asg-instance-count")
        dot = tree_to_dot(tree)
        assert "assertion: ami-exists" in dot
        assert "steps:" in dot
