"""Compiled token replay: the conformance checker's hot path.

The interpreted replayer (:class:`~repro.process.instance.ProcessInstance`
over :class:`~repro.process.model.PetriNet`) is the semantic reference,
but it pays dict-and-frozenset prices on every event: ``fire`` copies the
whole marking dict, ``enabled`` iterates a frozenset of place objects,
and every step allocates a :class:`ReplayStep`.  At ~12 µs/check that
caps the pipeline around 82k checks/s — far off the millions/s an
always-on streaming engine needs (ROADMAP item 3).

:func:`compile_model` flattens the net once per model into a
:class:`CompiledReplayTable` — DFA-style integer activity ids, dense
place indices, per-transition input/output index tuples — and
:class:`CompiledInstance` replays against a plain ``list[int]`` marking
mutated in place: no per-event dict churn, no frozensets, no step
objects on the fit path.  :class:`CompiledReplayer` manages the per-trace
instances.

Equivalence with the interpreted replayer — identical status sequences,
fitness, markings and error contexts on the corpus and on arbitrary
hypothesis-generated interleavings — is locked down by
``tests/process/test_compiled_replay.py``.
"""

from __future__ import annotations

import typing as _t

from repro.process.instance import ProcessInstance, ReplayStep
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
        "initial_produced",
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
        #: Dense index -> original place id (for marking snapshots).
        self.place_ids = tuple(
            place for place, _i in sorted(index.items(), key=lambda kv: kv[1])
        )
        self.place_count = len(index)
        marking = [0] * self.place_count
        for place, count in net.initial_marking.items():
            marking[index[place]] = count
        self.initial_marking = tuple(marking)
        self.final_indices = tuple(sorted(index[p] for p in net.final_places))
        #: The interpreted replayer counts the initial token as produced.
        self.initial_produced = 1


def compile_model(model: ProcessModel) -> CompiledReplayTable:
    """Compile (cached on the model, invalidated with its Petri net)."""
    table: CompiledReplayTable | None = getattr(model, _TABLE_ATTR, None)
    if table is None or table.net is not model.to_petri_net():
        table = CompiledReplayTable(model)
        setattr(model, _TABLE_ATTR, table)
    return table


class CompiledInstance:
    """Array-marking replay state for one trace; API-compatible with
    :class:`~repro.process.instance.ProcessInstance`."""

    __slots__ = (
        "table",
        "trace_id",
        "marking",
        "produced",
        "consumed",
        "missing",
        "last_fit",
        "_events",
    )

    def __init__(self, table: CompiledReplayTable, trace_id: str) -> None:
        self.table = table
        self.trace_id = trace_id
        self.marking: list[int] = list(table.initial_marking)
        self.produced = table.initial_produced
        self.consumed = 0
        self.missing = 0
        #: Last activity replayed fit (the FIT path keeps this a plain
        #: attribute read instead of a history scan).
        self.last_fit: str | None = None
        #: (time, activity, fit, missing) tuples; ReplaySteps on demand.
        self._events: list[tuple[float, str, bool, int]] = []

    # -- hot path -------------------------------------------------------------

    def is_enabled_id(self, tid: int) -> bool:
        marking = self.marking
        for place in self.table.inputs[tid]:
            if marking[place] <= 0:
                return False
        return True

    def replay_id(self, tid: int, time: float) -> bool:
        """Replay one event by transition id, forcing if unfit.

        Returns whether the event was fit (all input tokens present), and
        updates the marking in place plus the fitness counters — the
        compiled equivalent of ``PetriNet.fire(force=True)``.
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
        activity = table.activity_names[tid]
        if fit:
            self.last_fit = activity
        self._events.append((time, activity, fit, missing))
        return fit

    # -- ProcessInstance-compatible views -------------------------------------

    @property
    def model(self) -> ProcessModel:
        return self.table.model

    @property
    def net(self):
        return self.table.net

    @property
    def history(self) -> list[ReplayStep]:
        return [
            ReplayStep(time=t, activity=a, fit=f, missing_tokens=m)
            for t, a, f, m in self._events
        ]

    @property
    def started(self) -> bool:
        return bool(self._events)

    @property
    def completed(self) -> bool:
        marking = self.marking
        return any(marking[i] > 0 for i in self.table.final_indices)

    def last_activity(self) -> str | None:
        return self._events[-1][1] if self._events else None

    def last_fit_activity(self) -> str | None:
        return self.last_fit

    def enabled_activities(self) -> list[str]:
        return sorted(
            name
            for name, tid in self.table.activity_ids.items()
            if self.is_enabled_id(tid)
        )

    def is_enabled(self, activity: str) -> bool:
        tid = self.table.activity_ids.get(activity)
        return tid is not None and self.is_enabled_id(tid)

    def replay(self, activity: str, time: float = 0.0) -> ReplayStep:
        tid = self.table.activity_ids.get(activity)
        if tid is None:
            raise KeyError(
                f"activity {activity!r} not in model {self.table.model.model_id!r}"
            )
        self.replay_id(tid, time)
        t, a, fit, missing = self._events[-1]
        return ReplayStep(time=t, activity=a, fit=fit, missing_tokens=missing)

    def remaining_tokens(self) -> int:
        final = self.table.final_indices
        return sum(
            count
            for place, count in enumerate(self.marking)
            if count and place not in final
        )

    def fitness(self) -> float:
        if self.consumed == 0:
            return 1.0
        missing_part = 1 - self.missing / self.consumed
        if not self.completed:
            return missing_part
        remaining_part = 1 - self.remaining_tokens() / self.produced
        return 0.5 * missing_part + 0.5 * remaining_part

    def hypothesize_skipped(self, activity: str) -> list[str]:
        enabled = self.enabled_activities()
        if not enabled:
            enabled = sorted(self.table.model.start_activities)
        path = self.table.model.shortest_path(enabled, activity)
        if path is None or len(path) < 2:
            return []
        return path[:-1]

    def marking_dict(self) -> dict[int, int]:
        """Marking keyed by original place ids, zero entries elided —
        the exact shape :class:`ProcessInstance` keeps natively."""
        place_ids = self.table.place_ids
        return {
            place_ids[i]: count for i, count in enumerate(self.marking) if count
        }

    def snapshot(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "marking": self.marking_dict(),
            "history": [a for _t_, a, _f, _m in self._events],
            "enabled": self.enabled_activities(),
            "fitness": round(self.fitness(), 4),
        }


#: Either replay representation, as held in ``ConformanceChecker.instances``.
AnyInstance = _t.Union[ProcessInstance, CompiledInstance]


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
