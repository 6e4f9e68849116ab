"""Fault trees: the structured repository of known errors and root causes.

"We created fault trees to serve as a reference model for both robust
operations design and error diagnosis. ... Note that the fault trees are
not employed for [quantitative] FTA; instead we use them to structure data
in a repository."  (§III.B.4)

There is **one fault tree per assertion**.  Nodes carry variables
(``$asg_name``, ``$N``), an optional *diagnostic test* that confirms or
excludes the node's fault, an optional *process-context scope* (the steps
the subtree is relevant to — used for pruning), and a prior probability
that orders sibling visits.
"""

from repro.faulttree.tree import DiagnosticTest, FaultNode, FaultTree, node
from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.instantiate import instantiate_tree, substitute
from repro.faulttree.library import build_standard_fault_trees

__all__ = [
    "DiagnosticTest",
    "FaultNode",
    "FaultTree",
    "FaultTreeRegistry",
    "build_standard_fault_trees",
    "instantiate_tree",
    "node",
    "substitute",
]
