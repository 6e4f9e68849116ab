"""Process context: the paper's key abstraction.

"The key contribution made by our POD-Diagnosis approach is the use of
process context (such as operation process id, instance id, step id,
conformance status) to improve the success of error detection and
diagnosis."  A :class:`ProcessContext` carries exactly that information
from detection into diagnosis, where it selects and prunes fault trees.
"""

from __future__ import annotations

import dataclasses
import typing as _t


@dataclasses.dataclass
class ProcessContext:
    """Everything diagnosis knows about where an error happened."""

    process_id: str
    trace_id: str
    step: str | None = None
    position: str | None = None
    #: Outcome of the step, filled in by assertion evaluation.
    outcome: str | None = None
    #: Conformance status of the triggering line (fit/unfit/unknown/error).
    conformance: str | None = None
    #: Regex-extracted fields: instance id, asg id, ami id, counts...
    fields: dict[str, _t.Any] = dataclasses.field(default_factory=dict)
    #: Error context derived by conformance checking.
    last_valid_activity: str | None = None
    skipped_activities: list[str] = dataclasses.field(default_factory=list)

    @classmethod
    def from_record(cls, record) -> "ProcessContext":
        """Lift the annotations of a log record into a context object."""
        return cls(
            process_id=record.tag_value("process") or "unknown",
            trace_id=record.tag_value("trace") or "unknown",
            step=record.tag_value("step"),
            position=record.tag_value("position"),
            conformance=record.tag_value("conformance"),
            fields=dict(record.fields),
        )

    def merged_with(self, **updates) -> "ProcessContext":
        """Copy with overrides (contexts are treated as value objects)."""
        merged = dataclasses.replace(self)
        for key, value in updates.items():
            if key == "fields":
                merged.fields = {**merged.fields, **value}
            else:
                setattr(merged, key, value)
        return merged
