"""Pruning of fault trees by process context (§III.B.4).

"When the Error Diagnosis is triggered, we firstly select the correct
tree(s) according to the assertion that triggered the diagnosis.  Secondly
we instantiate the variables in these trees with the parameters from the
runtime request.  Then the associated process context from the request is
used to prune sub-trees that are not relevant in that process context."

The walk does both on the registry's own nodes as it visits them; this is
the report's view of the cut, taken before the walk.
"""

from __future__ import annotations

from repro.faulttree.tree import FaultTree


def instantiate_tree(tree: FaultTree, step: str | None) -> tuple[list[str], int]:
    """The ids of the sub-tree roots the ``step`` scoping cuts, in
    pre-order, and how many leaves it keeps (the potential faults).

    A cut sub-tree is named once, by its own root; the tree's root is never
    cut (the assertion did fail).  The registry's nodes are only read.
    """
    pruned: list[str] = []
    leaves = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node is not tree.root and not node.in_scope(step):
            pruned.append(node.node_id)
        elif node.children:
            stack.extend(reversed(node.children))
        else:
            leaves += 1
    return pruned, leaves
