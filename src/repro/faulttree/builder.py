"""Fault-tree registry: selection by assertion, amendment over time.

"We amended the on demand assertions and the root cause so that we can
correctly diagnose this fault in the future" (§VI.A) — the registry
supports exactly that evolution: trees can be looked up, extended with new
sub-trees/leaves, and re-validated.
"""

from __future__ import annotations

from repro.faulttree.tree import CONFIRMED, EXCLUDED, INCONCLUSIVE, FaultNode, FaultTree

#: What a test outcome may mean.
VERDICTS = frozenset({CONFIRMED, EXCLUDED, INCONCLUSIVE})


class FaultTreeRegistry:
    """All known fault trees, keyed by tree id."""

    def __init__(self) -> None:
        self._trees: dict[str, FaultTree] = {}

    def register(self, tree: FaultTree) -> None:
        if tree.tree_id in self._trees:
            raise ValueError(f"fault tree {tree.tree_id!r} already registered")
        self.validate(tree)
        self._trees[tree.tree_id] = tree

    def get(self, tree_id: str) -> FaultTree:
        if tree_id not in self._trees:
            raise KeyError(f"no fault tree {tree_id!r}")
        return self._trees[tree_id]

    def __contains__(self, tree_id: str) -> bool:
        return tree_id in self._trees

    def tree_ids(self) -> list[str]:
        return sorted(self._trees)

    def extend(self, tree_id: str, parent_node_id: str, subtree: FaultNode) -> None:
        """Graft a new subtree under an existing node (knowledge growth).

        This is the paper's account-limit amendment: after the fourth
        wrong-diagnosis class, a new root cause is added under the
        launch-failure event.
        """
        tree = self.get(tree_id)
        parent = tree.find(parent_node_id)
        if parent is None:
            raise KeyError(f"tree {tree_id!r} has no node {parent_node_id!r}")
        if tree.find(subtree.node_id) is not None:
            raise ValueError(f"tree {tree_id!r} already has node {subtree.node_id!r}")
        parent.children.append(subtree)
        self.validate(tree)

    @staticmethod
    def validate(tree: FaultTree) -> None:
        """Structural checks: unique node ids, every test outcome one of the three verdicts."""
        seen: set[str] = set()
        for node in tree.root.iter_nodes():
            if node.node_id in seen:
                raise ValueError(f"duplicate node id {node.node_id!r} in tree {tree.tree_id!r}")
            seen.add(node.node_id)
            if node.test and node.test.when_not_observed not in VERDICTS:
                raise ValueError(f"{node.node_id!r}: test outcome not in {sorted(VERDICTS)}")

    def stats(self) -> dict[str, dict]:
        return {
            tree_id: {
                "nodes": tree.node_count(),
                "leaves": len(tree.leaves()),
                "variables": list(tree.variables),
            }
            for tree_id, tree in self._trees.items()
        }
