"""Model discovery: DFG → ProcessModel, plus the end-to-end pipeline.

``discover_model`` converts a directly-follows graph into a
:class:`~repro.process.model.ProcessModel` with noise thresholding —
the Disco-style frequency-based discovery the paper used offline.

``mine_from_storage`` is the full §III.A pipeline over the central log
storage: pull each trace's activity sequence (from the ``step:`` tags the
annotator applied) and discover the model.  With pre-tagged logs this is
deterministic; the raw-line variant (cluster → regex → tag) lives in the
examples and tests.
"""

from __future__ import annotations

from repro.process.mining.dfg import DirectlyFollowsGraph
from repro.process.model import ProcessModel


def discover_model(
    dfg: DirectlyFollowsGraph,
    model_id: str = "discovered",
    min_edge_count: int = 1,
) -> ProcessModel:
    """Build a process model from a DFG.

    - edges below ``min_edge_count`` are dropped as noise;
    - start/end activities are those that begin/end a dominant share
      (half) of the traces.

    Raises :class:`ValueError` if no dominant start or end emerges — a
    sign the log is too noisy to discover from, matching the paper's
    caveat that "the granularity may be constrained by log granularity".
    """
    model = ProcessModel(model_id)
    for activity in dfg.activities():
        model.add_activity(activity)
    for source, target in dfg.edges(min_count=min_edge_count):
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


def traces_from_storage(storage) -> list[list[str]]:
    """Extract activity sequences per trace from annotated central logs.

    Only operation-type records with a recognised step tag contribute,
    and only each activity's *end* line, so one activity maps
    to one event (the same convention the paper's tagging pipeline used
    before feeding Disco).
    """
    traces: list[list[str]] = []
    for _trace_id, records in sorted(storage.traces().items()):
        sequence: list[str] = []
        for record in sorted(records, key=lambda r: r.time):
            if record.type != "operation":
                continue
            step = record.tag_value("step")
            if step is None or step == "unclassified":
                continue
            if record.tag_value("position") != "end":
                continue
            sequence.append(step)
        if sequence:
            traces.append(sequence)
    return traces


def mine_from_storage(storage) -> ProcessModel:
    """End-to-end: annotated central logs → discovered process model."""
    traces = traces_from_storage(storage)
    if not traces:
        raise ValueError("central storage holds no usable traces")
    dfg = DirectlyFollowsGraph.from_traces(traces)
    return discover_model(dfg, model_id="mined")
