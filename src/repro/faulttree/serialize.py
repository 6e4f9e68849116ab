"""Fault-tree export.

Fault trees are the knowledge base the paper expects vendors and
communities to share and amend (§III.C, §VI.A).  This module exports a
tree as Graphviz DOT in the Fig. 5 style (``repro trees --dot``).
"""

from __future__ import annotations

from repro.faulttree.tree import FaultTree


def tree_to_dot(tree: FaultTree) -> str:
    """Graphviz DOT: leaves (potential root causes) drawn as ellipses,
    tested nodes annotated with their diagnostic test."""
    lines = [
        f"digraph {_dot_id(tree.tree_id)} {{",
        '  node [fontname="Helvetica"];',
        f'  label="{tree.description}"; labelloc=t;',
    ]
    for node in tree.root.iter_nodes():
        shape = "ellipse" if node.is_leaf else "box"
        label = node.description or node.node_id
        if node.test is not None:
            label += f"\\n[{node.test.kind}: {node.test.name}]"
        if node.step_context:
            label += f"\\n(steps: {', '.join(sorted(node.step_context))})"
        lines.append(f'  {_dot_id(node.node_id)} [shape={shape}, label="{label}"];')
    for node in tree.root.iter_nodes():
        for child in node.children:
            lines.append(f"  {_dot_id(node.node_id)} -> {_dot_id(child.node_id)};")
    lines.append("}")
    return "\n".join(lines)


def _dot_id(name: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return safe if safe and not safe[0].isdigit() else f"n_{safe}"
