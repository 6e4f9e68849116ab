"""Token replay: the conformance checker's engine.

:func:`compile_model` flattens a model's Petri net once into a
:class:`CompiledReplayTable` — integer activity ids, dense place
indices, per-transition input/output index tuples — and
:class:`CompiledInstance` replays one trace against a plain ``list[int]``
marking mutated in place: no per-event dict copies, frozensets or step
objects.  The instance also carries the fitness counters (produced /
consumed / missing / remaining) of the standard token-replay fitness
formula.  :class:`CompiledReplayer` holds the per-trace instances of one
model.

``tests/process/reference_replay.py`` keeps a dict-marking replayer over
:class:`~repro.process.model.PetriNet` as the semantic oracle;
``tests/process/test_compiled_replay.py`` holds this engine to it —
identical status sequences, fitness, markings and error contexts on the
corpus and on hypothesis-generated interleavings.
"""

from __future__ import annotations

from repro.process.model import ProcessModel

#: Cache attribute stashed on the model (mirrors ``ProcessModel._net``).
_TABLE_ATTR = "_compiled_replay_table"


class CompiledReplayTable:
    """Flat transition table for one compiled :class:`ProcessModel`.

    Immutable after construction and shared by every instance replaying
    the same model, so it is safe process-wide (warm workers reuse one).
    """

    __slots__ = (
        "model",
        "net",
        "activity_ids",
        "activity_names",
        "inputs",
        "outputs",
        "input_counts",
        "output_counts",
        "place_ids",
        "place_count",
        "initial_marking",
        "final_indices",
    )

    def __init__(self, model: ProcessModel) -> None:
        self.model = model
        self.net = net = model.to_petri_net()
        index: dict[int, int] = {}

        def dense(place: int) -> int:
            if place not in index:
                index[place] = len(index)
            return index[place]

        names: list[str] = []
        ids: dict[str, int] = {}
        inputs: list[tuple[int, ...]] = []
        outputs: list[tuple[int, ...]] = []
        for name, (ins, outs) in net.transitions.items():
            ids[name] = len(names)
            names.append(name)
            inputs.append(tuple(sorted(dense(p) for p in ins)))
            outputs.append(tuple(sorted(dense(p) for p in outs)))
        for place in sorted(net.places):
            dense(place)

        self.activity_ids = ids
        self.activity_names = tuple(names)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        self.input_counts = tuple(len(t) for t in inputs)
        self.output_counts = tuple(len(t) for t in outputs)
        #: Dense index -> original place id.
        self.place_ids = tuple(
            place for place, _i in sorted(index.items(), key=lambda kv: kv[1])
        )
        self.place_count = len(index)
        marking = [0] * self.place_count
        for place, count in net.initial_marking.items():
            marking[index[place]] = count
        self.initial_marking = tuple(marking)
        self.final_indices = tuple(sorted(index[p] for p in net.final_places))


def compile_model(model: ProcessModel) -> CompiledReplayTable:
    """Compile (cached on the model, invalidated with its Petri net)."""
    table: CompiledReplayTable | None = getattr(model, _TABLE_ATTR, None)
    if table is None or table.net is not model.to_petri_net():
        table = CompiledReplayTable(model)
        setattr(model, _TABLE_ATTR, table)
    return table


class CompiledInstance:
    """Array-marking replay state for one trace of one process model.

    Conformance checking "looks up the process instance, if it is known;
    if not, a new instance is created" (§III.B.2).
    """

    __slots__ = (
        "table",
        "trace_id",
        "marking",
        "produced",
        "consumed",
        "missing",
        "last_fit",
    )

    def __init__(self, table: CompiledReplayTable, trace_id: str) -> None:
        self.table = table
        self.trace_id = trace_id
        self.marking: list[int] = list(table.initial_marking)
        # Fitness counters (van der Aalst, Process Mining, ch. 7.2).
        self.produced = 1  # the initial token
        self.consumed = 0
        self.missing = 0
        #: Last activity replayed fit.
        self.last_fit: str | None = None

    def is_enabled_id(self, tid: int) -> bool:
        marking = self.marking
        for place in self.table.inputs[tid]:
            if marking[place] <= 0:
                return False
        return True

    def replay_id(self, tid: int) -> bool:
        """Replay one event by transition id, forcing if unfit.

        Returns whether the event was fit (all input tokens present), and
        updates the marking in place plus the fitness counters — the
        table form of ``PetriNet.fire(force=True)``.
        """
        table = self.table
        marking = self.marking
        missing = 0
        for place in table.inputs[tid]:
            if marking[place] > 0:
                marking[place] -= 1
            else:
                missing += 1
        for place in table.outputs[tid]:
            marking[place] += 1
        self.consumed += table.input_counts[tid]
        self.produced += table.output_counts[tid]
        fit = missing == 0
        if missing:
            self.missing += missing
        else:
            self.last_fit = table.activity_names[tid]
        return fit

    @property
    def completed(self) -> bool:
        """A token sits on a final place."""
        marking = self.marking
        return any(marking[i] > 0 for i in self.table.final_indices)

    def enabled_activities(self) -> list[str]:
        return sorted(
            name
            for name, tid in self.table.activity_ids.items()
            if self.is_enabled_id(tid)
        )

    def replay(self, activity: str) -> bool:
        """Replay one event by activity name; returns whether it was fit."""
        tid = self.table.activity_ids.get(activity)
        if tid is None:
            raise KeyError(
                f"activity {activity!r} not in model {self.table.model.model_id!r}"
            )
        return self.replay_id(tid)

    def remaining_tokens(self) -> int:
        """Tokens left on non-final places (the 'remaining' counter)."""
        final = self.table.final_indices
        return sum(
            count
            for place, count in enumerate(self.marking)
            if count and place not in final
        )

    def fitness(self) -> float:
        """Token-replay fitness in [0, 1]: 1 means the trace fits exactly.

        For a completed trace this is the standard
        f = 1/2 (1 - missing/consumed) + 1/2 (1 - remaining/produced);
        for a still-running instance the remaining-token penalty is
        omitted — tokens parked mid-process are expected, not a deviation.
        """
        if self.consumed == 0:
            return 1.0
        missing_part = 1 - self.missing / self.consumed
        if not self.completed:
            return missing_part
        remaining_part = 1 - self.remaining_tokens() / self.produced
        return 0.5 * missing_part + 0.5 * remaining_part

    def hypothesize_skipped(self, activity: str) -> list[str]:
        """Activities that must have been skipped for ``activity`` to occur.

        From the error context of §III.B.2: "the hypothesized
        skipped/undone activities".  Computed as the shortest model path
        from any currently enabled activity to the unfit one; everything
        on that path before the observed activity — including the enabled
        activity itself, which was due but never executed — was skipped.
        """
        enabled = self.enabled_activities()
        if not enabled:
            enabled = sorted(self.table.model.start_activities)
        path = self.table.model.shortest_path(enabled, activity)
        if path is None or len(path) < 2:
            return []
        return path[:-1]


class CompiledReplayer:
    """Per-model replay engine: one shared table, one state per trace."""

    def __init__(self, model: ProcessModel) -> None:
        self.model = model
        self.table = compile_model(model)
        self.states: dict[str, CompiledInstance] = {}

    def instance_for(self, trace_id: str) -> CompiledInstance:
        state = self.states.get(trace_id)
        if state is None:
            state = CompiledInstance(self.table, trace_id)
            self.states[trace_id] = state
        return state
