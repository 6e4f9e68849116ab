"""Tests for fault-tree structure, substitution, pruning and registry."""

import pytest

from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.instantiate import instantiate_tree
from repro.faulttree.library import EXPECTED_ROOT_CAUSE, build_standard_fault_trees
from repro.faulttree.tree import DiagnosticTest, FaultTree, node, substitute, substitute_params


def small_tree():
    return FaultTree(
        tree_id="demo",
        description="demo tree for $asg_name",
        variables=("asg_name",),
        root=node(
            "root",
            "something wrong with $asg_name",
            node(
                "branch-a",
                "branch A of $asg_name",
                node("leaf-a1", "leaf a1", test=DiagnosticTest("assertion", "t1"), probability=0.9),
                node("leaf-a2", "leaf a2", test=DiagnosticTest("assertion", "t2"), probability=0.1),
                steps=("step-one",),
                probability=0.7,
            ),
            node(
                "branch-b",
                "branch B",
                test=DiagnosticTest("custom", "probe", params={"asg": "$asg_name"}),
                steps=("step-two",),
                probability=0.3,
            ),
        ),
    )


class TestNodeStructure:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            node("x", "d", probability=1.5)

    def test_iter_nodes_preorder(self):
        tree = small_tree()
        ids = [n.node_id for n in tree.root.iter_nodes()]
        assert ids == ["root", "branch-a", "leaf-a1", "leaf-a2", "branch-b"]

    def test_find(self):
        tree = small_tree()
        assert tree.find("leaf-a2").description == "leaf a2"
        assert tree.find("ghost") is None

    def test_leaves(self):
        assert {n.node_id for n in small_tree().leaves()} == {"leaf-a1", "leaf-a2", "branch-b"}

    def test_ordered_children_by_probability(self):
        tree = small_tree()
        order = [c.node_id for c in tree.find("branch-a").ordered_children()]
        assert order == ["leaf-a1", "leaf-a2"]


class TestSubstitution:
    def test_substitute_known_variables(self):
        assert substitute("check $asg_name now", {"asg_name": "asg-1"}) == "check asg-1 now"

    def test_unknown_variables_left_intact(self):
        assert substitute("check $mystery", {}) == "check $mystery"

    def test_substitute_params_only_strings(self):
        out = substitute_params({"a": "$x", "b": 3, "c": "lit"}, {"x": "X"})
        assert out == {"a": "X", "b": 3, "c": "lit"}


class TestPruning:
    def test_prune_keeps_matching_step(self):
        """(cut sub-tree roots, kept leaves); the tree is only read."""
        tree = small_tree()
        assert instantiate_tree(tree, "step-one") == (["branch-b"], 2)
        assert tree.find("branch-b") is not None

    def test_no_step_keeps_everything(self):
        assert instantiate_tree(small_tree(), None) == ([], 3)

    def test_unscoped_nodes_always_kept(self):
        tree = small_tree()
        tree.root.children[0].step_context = frozenset()
        assert instantiate_tree(tree, "step-two") == ([], 3)

    def test_prune_by_context_root_scoped_out(self):
        """A scoped-out node goes with everything below it, named once by
        its own id; the root is never pruned (the assertion did fail)."""
        scoped = node("x", "d", node("below", "d", steps=("other",)), steps=("other",))
        tree = FaultTree("t", "", root=node("r", "d", scoped, steps=("other",)))
        assert instantiate_tree(tree, "this") == (["x"], 0)


class TestRegistry:
    def test_register_and_get(self):
        registry = FaultTreeRegistry()
        registry.register(small_tree())
        assert "demo" in registry
        assert registry.get("demo").tree_id == "demo"

    def test_duplicate_rejected(self):
        registry = FaultTreeRegistry()
        registry.register(small_tree())
        with pytest.raises(ValueError):
            registry.register(small_tree())

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            FaultTreeRegistry().get("ghost")

    def test_duplicate_node_ids_rejected(self):
        registry = FaultTreeRegistry()
        bad = FaultTree(
            tree_id="bad",
            description="",
            root=node("r", "", node("dup", ""), node("dup", "")),
        )
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(bad)

    def test_outcome_outside_the_three_verdicts_rejected(self):
        """A tree (e.g. a shared JSON document) cannot teach the walk a
        fourth verdict: registration rejects it."""
        hints = DiagnosticTest("custom", "probe", when_not_observed="hints")
        bad = FaultTree(tree_id="bad", description="", root=node("r", "", test=hints))
        with pytest.raises(ValueError, match="confirmed"):
            FaultTreeRegistry().register(bad)

    def test_extend_grafts_subtree(self):
        """The paper's account-limit amendment: grow the tree with a new
        root cause after a wrong diagnosis."""
        registry = FaultTreeRegistry()
        registry.register(small_tree())
        registry.extend("demo", "branch-a", node("new-cause", "freshly learned"))
        assert registry.get("demo").find("new-cause") is not None

    def test_extend_missing_parent_raises(self):
        registry = FaultTreeRegistry()
        registry.register(small_tree())
        with pytest.raises(KeyError):
            registry.extend("demo", "ghost", node("x", ""))

    def test_extend_duplicate_id_rejected(self):
        registry = FaultTreeRegistry()
        registry.register(small_tree())
        ids = lambda: [n.node_id for n in registry.get("demo").root.iter_nodes()]
        before = ids()
        with pytest.raises(ValueError):
            registry.extend("demo", "branch-a", node("leaf-a1", ""))
        # A duplicate below the graft's root: rejected before anything is
        # grafted, so the tree is unchanged.
        with pytest.raises(ValueError, match="duplicate node id 'leaf-a1'"):
            registry.extend("demo", "branch-a", node("fresh", "", node("leaf-a1", "")))
        assert ids() == before

    def test_stats(self):
        registry = FaultTreeRegistry()
        registry.register(small_tree())
        assert registry.stats()["demo"]["nodes"] == 5
        assert registry.stats()["demo"]["leaves"] == 3


class TestStandardTrees:
    def test_all_trees_registered(self):
        registry = build_standard_fault_trees()
        assert set(registry.tree_ids()) == {
            "asg-instance-count",
            "asg-wrong-version",
            "elb-registration",
            "process-deviation",
            "resource-integrity",
        }

    def test_fig5_tree_has_the_four_config_faults(self):
        tree = build_standard_fault_trees().get("asg-instance-count")
        wrong_config = tree.find("asg-wrong-config")
        assert {c.node_id for c in wrong_config.children} == {
            "wrong-security-group",
            "wrong-key-pair",
            "wrong-ami",
            "wrong-instance-type",
        }

    def test_every_leaf_is_testable_or_documented(self):
        """Leaves without a test can never be confirmed; the standard
        trees must not contain silent dead ends."""
        registry = build_standard_fault_trees()
        for tree_id in registry.tree_ids():
            for leaf in registry.get(tree_id).leaves():
                assert leaf.test is not None, f"{tree_id}:{leaf.node_id} has no test"

    def test_expected_root_causes_exist_in_some_tree(self):
        registry = build_standard_fault_trees()
        all_nodes = set()
        for tree_id in registry.tree_ids():
            all_nodes |= {n.node_id for n in registry.get(tree_id).root.iter_nodes()}
        for fault, causes in EXPECTED_ROOT_CAUSE.items():
            covered = causes & all_nodes
            assert covered, f"{fault} has no reachable root cause node"

    def test_pruning_fig5_by_ready_step(self):
        """'If the assertion after New instance ready… triggered
        diagnosis, we prune all other sub-trees.'"""
        registry = build_standard_fault_trees()
        tree = registry.get("asg-instance-count")
        pruned, _ = instantiate_tree(tree, "new_instance_ready")
        assert "create-lc-fails" in pruned  # scoped to update_launch_configuration
        assert tree.find("asg-wrong-config").in_scope("new_instance_ready")
