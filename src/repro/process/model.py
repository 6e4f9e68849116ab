"""Process model: activities + edges, compiled to a Petri net.

The paper adapts the token-replay technique "from Petri Nets to the
semantics of BPMN".  We go the other way: the analyst (or the miner)
builds a BPMN-flavoured :class:`ProcessModel` — activities connected by
sequence flows, with XOR semantics at every split and join — and we
compile it to a :class:`PetriNet` on which standard token replay runs.

The compilation is the classic state-machine mapping (Fig. 2's rolling
upgrade is a sequence with one loop): one place per *merged* flow region;
an edge ``A → B`` makes A's output place the same as B's input place, and
sharing places encodes XOR splits/joins.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass(frozen=True)
class Activity:
    """A named process step."""

    name: str

    def __str__(self) -> str:
        return self.name


class ProcessModel:
    """Directed graph of activities with XOR gateway semantics."""

    def __init__(self, model_id: str) -> None:
        self.model_id = model_id
        self.activities: dict[str, Activity] = {}
        self.edges: list[tuple[str, str]] = []
        self.start_activities: set[str] = set()
        self.end_activities: set[str] = set()
        self._net: PetriNet | None = None

    # -- construction --------------------------------------------------------

    def add_activity(self, name: str) -> Activity:
        if name not in self.activities:
            self.activities[name] = Activity(name)
            self._net = None
        return self.activities[name]

    def add_edge(self, source: str, target: str) -> None:
        self.add_activity(source)
        self.add_activity(target)
        if (source, target) not in self.edges:
            self.edges.append((source, target))
            self._net = None

    def add_sequence(self, *names: str) -> None:
        """Convenience: chain activities in order."""
        for source, target in zip(names, names[1:]):
            self.add_edge(source, target)

    def mark_start(self, name: str) -> None:
        self.add_activity(name)
        self.start_activities.add(name)
        self._net = None

    def mark_end(self, name: str) -> None:
        self.add_activity(name)
        self.end_activities.add(name)
        self._net = None

    # -- queries ---------------------------------------------------------------

    def successors(self, name: str) -> list[str]:
        return [t for (s, t) in self.edges if s == name]

    def predecessors(self, name: str) -> list[str]:
        return [s for (s, t) in self.edges if t == name]

    def validate(self) -> list[str]:
        """Structural problems (empty list = sound enough to replay)."""
        problems = []
        if not self.start_activities:
            problems.append("no start activity declared")
        if not self.end_activities:
            problems.append("no end activity declared")
        for name in self.start_activities | self.end_activities:
            if name not in self.activities:
                problems.append(f"start/end activity {name!r} not in model")
        for name in self.end_activities:
            if name in self.activities and self.successors(name):
                # An end activity with outgoing edges would AND-split into
                # the sink on every firing, breaking single-token workflow
                # semantics.  Model loops from the end's predecessor (as
                # Fig. 2 does: the loop closes at 'new instance ready',
                # not at 'completed').
                problems.append(f"end activity {name!r} has outgoing edges")
        reachable = self._reachable_from(self.start_activities)
        for name in self.activities:
            if name not in reachable:
                problems.append(f"activity {name!r} unreachable from start")
        return problems

    def _reachable_from(self, roots: _t.Iterable[str]) -> set[str]:
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            current = frontier.pop()
            for successor in self.successors(current):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    def shortest_path(self, sources: _t.Iterable[str], target: str) -> list[str] | None:
        """BFS path from any source to target (used to hypothesise
        skipped activities when an unfit event is observed)."""
        frontier: list[list[str]] = [[s] for s in sources]
        seen = set(sources)
        while frontier:
            path = frontier.pop(0)
            if path[-1] == target:
                return path
            for successor in self.successors(path[-1]):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(path + [successor])
        return None

    # -- compilation -------------------------------------------------------------

    def to_petri_net(self) -> "PetriNet":
        """Compile (cached) to a Petri net for token replay."""
        if self._net is None:
            self._net = _compile(self)
        return self._net

    def __repr__(self) -> str:
        return (
            f"ProcessModel({self.model_id!r}, activities={len(self.activities)},"
            f" edges={len(self.edges)})"
        )


class PetriNet:
    """A minimal place/transition net: the structure token replay runs on.

    Transitions are labelled with activity names.  Places are integers.
    :mod:`repro.process.compiled` replays on the table it builds from this
    net; the interpreted firing rule it must equal lives with the tests
    (``tests/process/reference_replay.py``).
    """

    def __init__(self) -> None:
        self.places: set[int] = set()
        #: activity name -> (input places, output places)
        self.transitions: dict[str, tuple[frozenset[int], frozenset[int]]] = {}
        self.initial_marking: dict[int, int] = {}
        self.final_places: set[int] = set()

    def add_place(self, place: int) -> None:
        self.places.add(place)

    def add_transition(self, name: str, inputs: _t.Iterable[int], outputs: _t.Iterable[int]) -> None:
        self.transitions[name] = (frozenset(inputs), frozenset(outputs))
        self.places.update(inputs)
        self.places.update(outputs)


def _compile(model: ProcessModel) -> PetriNet:
    """Compile a ProcessModel to a PetriNet.

    XOR semantics: each activity has one input region and one output
    region; an edge unifies the source's output region with the target's
    input region (union-find), so shared regions realise XOR splits and
    joins.
    """
    problems = model.validate()
    if problems:
        raise ValueError(f"model {model.model_id!r} invalid: {problems}")

    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    # Region keys: "out:activity" and "in:activity"; edges merge them.
    for source, target in model.edges:
        union(f"out:{source}", f"in:{target}")

    # Collect distinct regions per activity side.
    region_ids: dict[str, int] = {}

    def region(key: str) -> int:
        root = find(key)
        if root not in region_ids:
            region_ids[root] = len(region_ids)
        return region_ids[root]

    net = PetriNet()
    # Dedicated source/sink places.
    source_place = -1
    sink_place = -2
    net.add_place(source_place)
    net.add_place(sink_place)

    for name in model.activities:
        inputs: set[int] = set()
        outputs: set[int] = set()
        if model.predecessors(name):
            inputs.add(region(f"in:{name}"))
        if model.successors(name):
            outputs.add(region(f"out:{name}"))
        if name in model.start_activities:
            inputs.add(source_place)
        if name in model.end_activities:
            outputs.add(sink_place)
        if not inputs:
            inputs.add(source_place)
        if not outputs:
            outputs.add(sink_place)
        net.add_transition(name, inputs, outputs)

    net.initial_marking = {source_place: 1}
    net.final_places = {sink_place}
    return net
