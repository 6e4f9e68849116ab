"""Diagnosis outputs: root causes, test executions, the full report."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class TestExecution:
    """One diagnostic test run (or reuse of an earlier observation) during
    a diagnosis; the uncached ones replay the walk exactly."""

    __test__ = False  # not a pytest class, despite the name

    node_id: str
    test_kind: str
    test_name: str
    verdict: str
    evidence: dict = dataclasses.field(default_factory=dict)
    cached: bool = False
    duration: float = 0.0
    #: True when the verdict was forced to inconclusive by API-plane
    #: degradation (chaos) rather than decided on evidence.
    degraded: bool = False
    #: The raw observation: the fault's condition seen / not seen / None
    #: when the test could not look.
    observed: bool | None = None
    description: str = ""  # the tested node's


@dataclasses.dataclass
class RootCause:
    """A fault the diagnosis ends at.

    ``status`` is ``confirmed`` for a leaf whose test confirmed the fault,
    or ``undetermined`` when diagnosis stopped at a confirmed inner node
    whose children could not be confirmed ("diagnosis stops at the point
    where no further child nodes can be checked, e.g. when an instance was
    terminated, but the diagnosis cannot determine why").
    """

    node_id: str
    description: str
    status: str  # "confirmed" | "undetermined"
    probability: float = 0.5


@dataclasses.dataclass
class DiagnosisReport:
    """Everything one diagnosis run produced."""

    request_id: str
    trigger: str  # "assertion" | "conformance" | "external"
    trigger_detail: str
    trace_id: str
    step: str | None
    started_at: float
    finished_at: float = 0.0
    tree_ids: list[str] = dataclasses.field(default_factory=list)
    root_causes: list[RootCause] = dataclasses.field(default_factory=list)
    tests: list[TestExecution] = dataclasses.field(default_factory=list)
    #: Ids of the sub-tree roots the step scoping cut before the walk.
    pruned: list[str] = dataclasses.field(default_factory=list)
    potential_fault_count: int = 0
    excluded_count: int = 0

    @property
    def duration(self) -> float:
        """Diagnosis time — the quantity Fig. 6 plots."""
        return self.finished_at - self.started_at

    @property
    def no_root_cause(self) -> bool:
        return not self.root_causes

    @property
    def degraded_test_count(self) -> int:
        """How many verdicts were lost to API-plane degradation."""
        return sum(1 for t in self.tests if t.degraded)

    def summary(self) -> str:
        if self.no_root_cause:
            outcome = "No root cause identified"
        else:
            parts = [f"{c.node_id} ({c.status})" for c in self.root_causes]
            outcome = "Root causes: " + ", ".join(parts)
        return (
            f"diagnosis {self.request_id} [{self.trigger}] trace={self.trace_id}"
            f" step={self.step or '-'} in {self.duration:.2f}s — {outcome}"
        )
