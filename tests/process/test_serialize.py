"""Tests for the DOT exports of process models and fault trees."""

from repro.faulttree.library import build_standard_fault_trees
from repro.faulttree.serialize import tree_to_dot
from repro.operations.rolling_upgrade import reference_process_model
from repro.process.model import ProcessModel
from repro.process.serialize import model_to_dot


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


class TestTreeDot:
    def test_dot_contains_leaves_as_ellipses(self):
        tree = build_standard_fault_trees().get("asg-wrong-version")
        dot = tree_to_dot(tree)
        assert "shape=ellipse" in dot
        assert "shape=box" in dot
        assert "lc_corrupted -> wrong_ami" in dot

    def test_dot_mentions_tests_and_steps(self):
        tree = build_standard_fault_trees().get("asg-instance-count")
        dot = tree_to_dot(tree)
        assert "assertion: ami-exists" in dot
        assert "steps:" in dot
