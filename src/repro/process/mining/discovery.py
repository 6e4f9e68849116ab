"""Model discovery: DFG → ProcessModel.

``discover_model`` converts a directly-follows graph into a
:class:`~repro.process.model.ProcessModel` — the Disco-style
frequency-based discovery the paper used offline.  ``repro mine`` feeds
it traces tagged by the rolling upgrade's pattern library;
``examples/process_mining_demo.py`` feeds it the raw-line pipeline
(cluster → regex → tag).
"""

from __future__ import annotations

from repro.process.mining.dfg import DirectlyFollowsGraph
from repro.process.model import ProcessModel


def discover_model(
    dfg: DirectlyFollowsGraph,
    model_id: str = "discovered",
) -> ProcessModel:
    """Build a process model from a DFG: every directly-follows edge;
    start/end activities are those that begin/end a dominant share (half)
    of the traces.

    Raises :class:`ValueError` if no dominant start or end emerges — a
    sign the log is too noisy to discover from, matching the paper's
    caveat that "the granularity may be constrained by log granularity".
    """
    model = ProcessModel(model_id)
    for activity in dfg.activities():
        model.add_activity(activity)
    for source, target in dfg.edges():
        model.add_edge(source, target)
    starts = dfg.dominant_starts()
    ends = dfg.dominant_ends()
    if not starts:
        raise ValueError("no dominant start activity; log too noisy to discover from")
    if not ends:
        raise ValueError("no dominant end activity; log too noisy to discover from")
    for activity in starts:
        model.mark_start(activity)
    for activity in ends:
        model.mark_end(activity)
    problems = model.validate()
    if problems:
        raise ValueError(f"discovered model is not sound: {problems}")
    return model

