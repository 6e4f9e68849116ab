"""Process-model export.

Models are the analyst-facing artifact: they get reviewed, versioned and
re-discovered as processes evolve (§III.C).  This module exports a
:class:`~repro.process.model.ProcessModel` as Graphviz DOT for
documentation — the form Fig. 2 is drawn in (``repro mine --dot``).
"""

from __future__ import annotations

from repro.process.model import ProcessModel


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
