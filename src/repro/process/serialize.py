"""Process-model serialization and export.

Models are the analyst-facing artifact: they get reviewed, versioned and
re-discovered as processes evolve (§III.C).  This module round-trips a
:class:`~repro.process.model.ProcessModel` through a plain dict (for JSON
storage) and exports Graphviz DOT for documentation — the form Fig. 2 is
drawn in.
"""

from __future__ import annotations

from repro.process.model import ProcessModel

SCHEMA_VERSION = 1


def model_to_dict(model: ProcessModel) -> dict:
    """A JSON-safe representation of the model."""
    return {
        "schema": SCHEMA_VERSION,
        "model_id": model.model_id,
        "activities": sorted(model.activities),
        "edges": [list(edge) for edge in model.edges],
        "start_activities": sorted(model.start_activities),
        "end_activities": sorted(model.end_activities),
        "parallel_splits": sorted(model.parallel_splits),
        "parallel_joins": sorted(model.parallel_joins),
    }


def model_from_dict(data: dict) -> ProcessModel:
    """Rebuild a model; raises ValueError on schema or shape problems."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported process model schema: {data.get('schema')!r}")
    model = ProcessModel(data["model_id"])
    for activity in data.get("activities", []):
        model.add_activity(activity)
    for source, target in data.get("edges", []):
        model.add_edge(source, target)
    for activity in data.get("start_activities", []):
        model.mark_start(activity)
    for activity in data.get("end_activities", []):
        model.mark_end(activity)
    for activity in data.get("parallel_splits", []):
        model.mark_parallel_split(activity)
    for activity in data.get("parallel_joins", []):
        model.mark_parallel_join(activity)
    problems = model.validate()
    if problems:
        raise ValueError(f"deserialized model invalid: {problems}")
    return model


def model_to_dot(model: ProcessModel) -> str:
    """Graphviz DOT rendering (Fig. 2 style: boxes and arrows)."""
    lines = [
        f"digraph {_dot_id(model.model_id)} {{",
        "  rankdir=TB;",
        '  node [shape=box, style=rounded, fontname="Helvetica"];',
    ]
    for activity in sorted(model.activities):
        attrs = []
        if activity in model.start_activities:
            attrs.append("peripheries=2")
        if activity in model.end_activities:
            attrs.append("style=\"rounded,bold\"")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_id(activity)}{suffix};")
    for source, target in model.edges:
        style = ""
        # Back edges (loops) dashed, as Fig. 2 draws the upgrade loop.
        if model.shortest_path([target], source) is not None and source != target:
            style = " [style=dashed]"
        lines.append(f"  {_dot_id(source)} -> {_dot_id(target)}{style};")
    lines.append("}")
    return "\n".join(lines)


def _dot_id(name: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return safe if safe and not safe[0].isdigit() else f"n_{safe}"
