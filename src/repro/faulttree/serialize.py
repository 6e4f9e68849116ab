"""Fault-tree serialization and export.

Fault trees are the knowledge base the paper expects vendors and
communities to share and amend (§III.C, §VI.A).  This module round-trips
trees through plain dicts (for JSON repositories) and exports Graphviz
DOT in the Fig. 5 style.
"""

from __future__ import annotations

from repro.faulttree.tree import DiagnosticTest, FaultNode, FaultTree

SCHEMA_VERSION = 1


def _test_to_dict(test: DiagnosticTest | None) -> dict | None:
    if test is None:
        return None
    return {
        "kind": test.kind,
        "name": test.name,
        "params": dict(test.params),
        "when_not_observed": test.when_not_observed,
    }


def _test_from_dict(data: dict | None) -> DiagnosticTest | None:
    if data is None:
        return None
    return DiagnosticTest(
        kind=data["kind"],
        name=data["name"],
        params=dict(data.get("params", {})),
        when_not_observed=data.get("when_not_observed", "excluded"),
    )


def _node_to_dict(node: FaultNode) -> dict:
    return {
        "node_id": node.node_id,
        "description": node.description,
        "probability": node.probability,
        "steps": sorted(node.step_context),
        "test": _test_to_dict(node.test),
        "children": [_node_to_dict(child) for child in node.children],
    }


def _node_from_dict(data: dict) -> FaultNode:
    return FaultNode(
        node_id=data["node_id"],
        description=data.get("description", ""),
        children=[_node_from_dict(c) for c in data.get("children", [])],
        test=_test_from_dict(data.get("test")),
        step_context=frozenset(data.get("steps", [])),
        probability=data.get("probability", 0.5),
    )


def tree_to_dict(tree: FaultTree) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tree_id": tree.tree_id,
        "description": tree.description,
        "variables": list(tree.variables),
        "root": _node_to_dict(tree.root),
    }


def tree_from_dict(data: dict) -> FaultTree:
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported fault tree schema: {data.get('schema')!r}")
    return FaultTree(
        tree_id=data["tree_id"],
        description=data.get("description", ""),
        variables=tuple(data.get("variables", ())),
        root=_node_from_dict(data["root"]),
    )


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
