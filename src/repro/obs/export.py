"""Render and serialise traces: JSON payloads and human-readable trees.

The JSON shape (one object per run) is what ``python -m repro
trace-export`` writes and what downstream tooling should parse::

    {
      "run_id": "ami_changed-01",
      "spans": [{"span_id": 1, "parent_id": null, "name": ..., "stage":
                 ..., "start": ..., "end": ..., "attrs": {...}}, ...],
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}
    }

The spans come in as the tracer's own :class:`~repro.obs.trace.Span`
records (``RunOutcome.trace``); :func:`trace_payload` is where they
become dicts.  :func:`render_span_tree` prints the same spans as an
indented tree with virtual timestamps — the quickest way to read where
a run spent its time and which stage produced which verdict.
"""

from __future__ import annotations

import typing as _t

from repro.obs.trace import Span

#: Attributes surfaced inline in the rendered tree, in display order.
_TREE_ATTRS = (
    "status", "activity", "assertion_id", "cause", "result", "verdict",
    "test", "trigger", "tree_ids", "cached",
)


def span_children(spans: _t.Sequence[Span]) -> dict[int | None, list[Span]]:
    """Index spans by parent id, preserving span-id order."""
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


def span_stages(spans: _t.Iterable[Span]) -> dict[str, int]:
    """Span count per pipeline stage (sorted by stage name)."""
    stages: dict[str, int] = {}
    for span in spans:
        stages[span.stage] = stages.get(span.stage, 0) + 1
    return {k: stages[k] for k in sorted(stages)}


def _format_span(span: Span) -> str:
    start, end, attrs = span.start, span.end, span.attrs
    timing = f"[{start:9.3f}s"
    timing += f" +{end - start:7.3f}s]" if end is not None else "   (open)]"
    shown = [f"{k}={attrs[k]}" for k in _TREE_ATTRS if k in attrs]
    suffix = f"  {' '.join(shown)}" if shown else ""
    return f"{timing} {span.stage}:{span.name}{suffix}"


def _walk(children: dict, parent: int | None, depth: int, lines: list, limit: int | None) -> None:
    # Module-level on purpose: a nested recursive def is a reference cycle
    # (function <-> its own closure cell) left behind by every render.
    for span in children.get(parent, ()):
        if limit is not None and len(lines) >= limit:
            return
        lines.append("  " * depth + _format_span(span))
        _walk(children, span.span_id, depth + 1, lines, limit)


def render_span_tree(
    spans: _t.Sequence[Span], title: str | None = None, max_spans: int | None = None
) -> str:
    """Indented per-run span tree, one line per span, virtual timestamps."""
    lines: list[str] = []
    if title:
        lines.append(title)
    _walk(span_children(spans), None, 0, lines, max_spans)
    total = len(spans)
    if max_spans is not None and total > max_spans:
        lines.append(f"... ({total - max_spans} more spans; see the JSON export)")
    stages = span_stages(spans)
    summary = ", ".join(f"{stage}={count}" for stage, count in stages.items())
    lines.append(f"{total} spans ({summary})")
    return "\n".join(lines)


def trace_payload(run_id: str, spans: _t.Sequence[Span], metrics: dict | None) -> dict:
    """The per-run JSON object written by ``trace-export``."""
    return {
        "run_id": run_id,
        "span_count": len(spans),
        "stages": span_stages(spans),
        "spans": [span.to_dict() for span in spans],
        "metrics": metrics or {},
    }
