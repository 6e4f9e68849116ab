"""Directly-follows graph over activity traces.

The core statistic behind discovery: "the algorithms derive causal
dependencies between events, e.g., that event A is always followed by
event B" (§III.A).  We count directly-follows pairs, start/end activities
and activity frequencies over a set of traces.
"""

from __future__ import annotations

import collections
import typing as _t


class DirectlyFollowsGraph:
    """Frequency-annotated directly-follows relation."""

    def __init__(self) -> None:
        self.edge_counts: collections.Counter = collections.Counter()
        self.activity_counts: collections.Counter = collections.Counter()
        self.start_counts: collections.Counter = collections.Counter()
        self.end_counts: collections.Counter = collections.Counter()
        self.trace_count = 0

    def add_trace(self, trace: _t.Sequence[str]) -> None:
        if not trace:
            return
        self.trace_count += 1
        self.start_counts[trace[0]] += 1
        self.end_counts[trace[-1]] += 1
        for activity in trace:
            self.activity_counts[activity] += 1
        for a, b in zip(trace, trace[1:]):
            self.edge_counts[(a, b)] += 1

    @classmethod
    def from_traces(cls, traces: _t.Iterable[_t.Sequence[str]]) -> "DirectlyFollowsGraph":
        dfg = cls()
        for trace in traces:
            dfg.add_trace(trace)
        return dfg

    # -- views --------------------------------------------------------------

    def activities(self) -> list[str]:
        return sorted(self.activity_counts)

    def edges(self, min_count: int = 1) -> list[tuple[str, str]]:
        """Edges seen at least ``min_count`` times (noise thresholding)."""
        return sorted(e for e, c in self.edge_counts.items() if c >= min_count)

    def successors(self, activity: str) -> list[str]:
        return sorted(b for a, b in self.edge_counts if a == activity)

    def dominant_starts(self) -> list[str]:
        """Activities beginning at least half of the traces."""
        return sorted(a for a, c in self.start_counts.items() if 2 * c >= self.trace_count)

    def dominant_ends(self) -> list[str]:
        return sorted(a for a, c in self.end_counts.items() if 2 * c >= self.trace_count)

    def loop_edges(self) -> list[tuple[str, str]]:
        """Back edges: pairs (a, b) where both a→b and a path b→…→a exist.

        Reported for analyst inspection; discovery keeps them as ordinary
        XOR branches, which is how Fig. 2's upgrade loop appears.
        """
        edges = set(self.edge_counts)
        adjacency: dict[str, set[str]] = collections.defaultdict(set)
        for a, b in edges:
            adjacency[a].add(b)

        def reaches(src: str, dst: str) -> bool:
            seen, frontier = {src}, [src]
            while frontier:
                node = frontier.pop()
                for nxt in adjacency[node]:
                    if nxt == dst:
                        return True
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return False

        return sorted((a, b) for (a, b) in edges if reaches(b, a))

    def __repr__(self) -> str:
        return (
            f"DirectlyFollowsGraph(activities={len(self.activity_counts)},"
            f" edges={len(self.edge_counts)}, traces={self.trace_count})"
        )
