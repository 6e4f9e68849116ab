"""The dict-marking token replayer, kept as the semantic oracle.

``ProcessInstance`` replays one trace directly on the model's
:class:`~repro.process.model.PetriNet` with the interpreted firing rule
defined here — :func:`fire` copies the marking dict, :func:`enabled`
walks a frozenset of places, every event allocates a
:class:`ReplayStep` — and ``ReferenceChecker`` classifies a record and
derives its error context with it, eagerly, line by line.  Slow and
obviously right: tests/process/test_compiled_replay.py requires
:mod:`repro.process.compiled` and
:class:`~repro.process.conformance.ConformanceChecker` to be
indistinguishable from them.
"""

from __future__ import annotations

import dataclasses

from repro.logsys.patterns import PatternLibrary, classify_record
from repro.logsys.record import tag_entry
from repro.process.conformance import ERROR, FIT, UNFIT, UNKNOWN, ConformanceResult
from repro.process.context import ProcessContext
from repro.process.model import PetriNet, ProcessModel


def enabled(net: PetriNet, marking: dict[int, int], name: str) -> bool:
    inputs, _outputs = net.transitions[name]
    return all(marking.get(p, 0) > 0 for p in inputs)


def enabled_transitions(net: PetriNet, marking: dict[int, int]) -> list[str]:
    return sorted(t for t in net.transitions if enabled(net, marking, t))


def fire(
    net: PetriNet, marking: dict[int, int], name: str, force: bool = False
) -> tuple[dict[int, int], int]:
    """Fire a transition; returns (new marking, missing token count).

    With ``force=True`` missing input tokens are created (counted as
    *missing* for the fitness metric) so replay can continue — the
    standard token-replay recovery.
    """
    inputs, outputs = net.transitions[name]
    missing = 0
    new_marking = dict(marking)
    for place in inputs:
        if new_marking.get(place, 0) > 0:
            new_marking[place] -= 1
            if new_marking[place] == 0:
                del new_marking[place]
        elif force:
            missing += 1
        else:
            raise ValueError(f"transition {name!r} not enabled")
    for place in outputs:
        new_marking[place] = new_marking.get(place, 0) + 1
    return new_marking, missing


@dataclasses.dataclass
class ReplayStep:
    """One executed event in this instance's history."""

    time: float
    activity: str
    fit: bool
    missing_tokens: int = 0


class ProcessInstance:
    """Token-replay state for one trace of one process model."""

    def __init__(self, model: ProcessModel, trace_id: str) -> None:
        self.model = model
        self.trace_id = trace_id
        self.net = model.to_petri_net()
        self.marking: dict[int, int] = dict(self.net.initial_marking)
        self.history: list[ReplayStep] = []
        # Fitness counters (van der Aalst, Process Mining, ch. 7.2).
        self.produced = 1  # the initial token
        self.consumed = 0
        self.missing = 0

    # -- state queries ---------------------------------------------------------

    @property
    def completed(self) -> bool:
        """A final-place token present and nothing else pending."""
        final_tokens = sum(self.marking.get(p, 0) for p in self.net.final_places)
        return final_tokens > 0

    def last_fit_activity(self) -> str | None:
        for step in reversed(self.history):
            if step.fit:
                return step.activity
        return None

    def enabled_activities(self) -> list[str]:
        return enabled_transitions(self.net, self.marking)

    def is_enabled(self, activity: str) -> bool:
        if activity not in self.net.transitions:
            return False
        return enabled(self.net, self.marking, activity)

    # -- replay -----------------------------------------------------------------

    def replay(self, activity: str, time: float = 0.0) -> ReplayStep:
        """Replay one event, forcing if unfit; returns the step record."""
        if activity not in self.net.transitions:
            raise KeyError(f"activity {activity!r} not in model {self.model.model_id!r}")
        fit = self.is_enabled(activity)
        self.marking, missing = fire(self.net, self.marking, activity, force=True)
        inputs, outputs = self.net.transitions[activity]
        self.consumed += len(inputs)
        self.produced += len(outputs)
        self.missing += missing
        step = ReplayStep(time=time, activity=activity, fit=fit, missing_tokens=missing)
        self.history.append(step)
        return step

    def remaining_tokens(self) -> int:
        """Tokens left on non-final places (the 'remaining' counter)."""
        return sum(
            count for place, count in self.marking.items() if place not in self.net.final_places
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
            enabled = sorted(self.model.start_activities)
        path = self.model.shortest_path(enabled, activity)
        if path is None or len(path) < 2:
            return []
        return path[:-1]


class ReferenceChecker:
    """Line-at-a-time conformance over :class:`ProcessInstance`."""

    def __init__(self, model: ProcessModel, library: PatternLibrary) -> None:
        self.model = model
        self.library = library
        self.instances: dict[str, ProcessInstance] = {}
        self.results: list[ConformanceResult] = []

    def instance_for(self, trace_id: str) -> ProcessInstance:
        if trace_id not in self.instances:
            self.instances[trace_id] = ProcessInstance(self.model, trace_id)
        return self.instances[trace_id]

    def check(self, record) -> ConformanceResult:
        trace_id = record.tag_value("trace") or f"untraced:{record.source}"
        instance = self.instance_for(trace_id)
        classification = classify_record(self.library, record)
        context = ProcessContext.from_record(record)
        context.last_valid_activity = instance.last_fit_activity()

        if not classification.matched:
            status = UNKNOWN
            activity = None
        elif classification.pattern.is_error:
            status = ERROR
            activity = classification.activity
        else:
            activity = classification.activity
            if activity not in instance.net.transitions:
                # A pattern for an activity this model does not have.
                status = UNKNOWN
                activity = None
            elif instance.is_enabled(activity):
                instance.replay(activity, time=record.time)
                status = FIT
            else:
                context.skipped_activities = instance.hypothesize_skipped(activity)
                instance.replay(activity, time=record.time)
                status = UNFIT
        context.conformance = status
        context.step = activity or context.step
        record.add_entries([tag_entry(f"conformance:{status}")])
        result = ConformanceResult(status, activity, trace_id, context=context)
        self.results.append(result)
        return result

    def fitness_of(self, trace_id: str) -> float:
        return self.instance_for(trace_id).fitness()
