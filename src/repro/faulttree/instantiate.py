"""Instantiation and pruning of fault trees (§III.B.4).

"When the Error Diagnosis is triggered, we firstly select the correct
tree(s) according to the assertion that triggered the diagnosis.  Secondly
we instantiate the variables in these trees with the parameters from the
runtime request.  Then the associated process context from the request is
used to prune sub-trees that are not relevant in that process context."
"""

from __future__ import annotations

import dataclasses
import re

from repro.faulttree.tree import FaultNode, FaultTree

_VAR = re.compile(r"\$(\w+)")


def substitute(text: str, params: dict) -> str:
    """Replace ``$var`` tokens with runtime parameters.

    Unknown variables are left as-is: diagnosis can still proceed, the
    corresponding test will simply report missing context (which is how
    the paper's timer-only triggers end up with weak diagnoses).
    """
    if "$" not in text:
        return text

    def repl(match: re.Match) -> str:
        key = match.group(1)
        value = params.get(key)
        return str(value) if value is not None else match.group(0)

    return _VAR.sub(repl, text)


def substitute_params(template: dict, params: dict) -> dict:
    """Instantiate a test's parameter template.

    String values get ``$var`` substitution; the literal value ``"$var"``
    whose variable is missing stays unresolved (marker for weak context).
    """
    result: dict = {}
    for key, value in template.items():
        if isinstance(value, str):
            result[key] = substitute(value, params)
        else:
            result[key] = value
    return result


def instantiate_tree(
    tree: FaultTree, params: dict, step: str | None = None
) -> tuple[FaultNode, list[str]]:
    """Instantiate in one pass: copy what the step scoping keeps,
    substituting variables on the way.

    Returns the new root and the ids of the sub-tree roots that were cut.
    A node with an empty ``step_context`` is kept (context-free); a node
    scoped to specific steps is kept only if the current step is among
    them — or if no step is known at all (timer-triggered diagnosis has to
    keep everything, which is exactly why it is slower and weaker).  The
    root itself is never pruned (the assertion did fail); only subtrees
    are.
    """
    pruned: list[str] = []
    return _instantiate(tree.root, params, step, pruned), pruned


def _instantiate(node: FaultNode, params: dict, step: str | None, pruned: list[str]) -> FaultNode:
    # Module-level on purpose: a nested recursive def is a reference cycle
    # (function <-> its own closure cell) left behind by every walk.
    children = []
    for child in node.children:
        if step is not None and child.step_context and step not in child.step_context:
            pruned.append(child.node_id)
        else:
            children.append(_instantiate(child, params, step, pruned))
    test = node.test
    if test is not None:
        test = dataclasses.replace(test, params=substitute_params(test.params, params))
    return FaultNode(
        node_id=node.node_id,
        description=substitute(node.description, params),
        children=children,
        test=test,
        step_context=node.step_context,
        probability=node.probability,
    )
