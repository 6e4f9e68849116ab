"""Fault tree data model, and the ``$var`` binding the walk applies to it."""

from __future__ import annotations

import dataclasses
import re
import typing as _t

#: The walk's three verdicts, defined here and nowhere else.
CONFIRMED = "confirmed"
EXCLUDED = "excluded"
INCONCLUSIVE = "inconclusive"


@dataclasses.dataclass
class DiagnosticTest:
    """How to confirm or exclude a node's fault at diagnosis time.

    A test *observes* whether the condition it looks for is there.  Seeing
    it confirms the node's fault and a test that could not look is
    inconclusive; what *not* seeing it means is declared here, as data:
    ``when_not_observed`` names one of the walk's three verdicts.  Two
    kinds:

    - ``assertion`` — run an on-demand assertion from the registry; the
      observation is "it failed" (e.g. the fault "AMI unavailable" is
      present when the ``ami-exists`` assertion fails);
    - ``custom`` — run a named diagnosis probe from
      :mod:`repro.diagnosis.tests` (scaling-activity inspection, monitor
      history, CloudTrail lookups...).

    ``params`` may contain ``$var`` placeholders instantiated from the
    runtime request.
    """

    kind: str  # "assertion" | "custom"
    name: str  # assertion id or custom test name
    params: dict = dataclasses.field(default_factory=dict)
    when_not_observed: str = EXCLUDED


@dataclasses.dataclass
class FaultNode:
    """One event/fault in the tree.

    Leaves (no children) are potential *root causes*.  Inner nodes are
    intermediate events whose children combine by OR — any child
    suffices, the only gate the paper's operation trees use and the only
    one the diagnosis walk implements.
    """

    node_id: str
    description: str
    children: list["FaultNode"] = dataclasses.field(default_factory=list)
    test: DiagnosticTest | None = None
    #: Steps (activity names) this subtree is associated with; empty means
    #: relevant in any process context.
    step_context: frozenset[str] = frozenset()
    #: Prior probability used to order sibling visits (§III.B.4).
    probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ValueError("probability must be in [0, 1]")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def in_scope(self, step: str | None) -> bool:
        """Context-free, scoped to ``step``, or no step is known (a timer's
        diagnosis keeps everything, which is why it is slower and weaker)."""
        return step is None or not self.step_context or step in self.step_context

    def iter_nodes(self) -> _t.Iterator["FaultNode"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def find(self, node_id: str) -> "FaultNode | None":
        for candidate in self.iter_nodes():
            if candidate.node_id == node_id:
                return candidate
        return None

    def ordered_children(self) -> list["FaultNode"]:
        """Children by descending prior probability (stable for ties)."""
        return sorted(self.children, key=lambda c: -c.probability)


@dataclasses.dataclass
class FaultTree:
    """One fault tree, selected by the assertion whose failure it explains."""

    tree_id: str
    description: str
    root: FaultNode
    #: Variables expected in the runtime request (documentation + checks).
    variables: tuple[str, ...] = ()

    def node_count(self) -> int:
        return sum(1 for _ in self.root.iter_nodes())

    def leaves(self) -> list[FaultNode]:
        return [n for n in self.root.iter_nodes() if n.is_leaf]

    def find(self, node_id: str) -> FaultNode | None:
        return self.root.find(node_id)


def node(
    node_id: str,
    description: str,
    *children: FaultNode,
    test: DiagnosticTest | None = None,
    steps: _t.Iterable[str] = (),
    probability: float = 0.5,
) -> FaultNode:
    """Terse constructor used by the tree library."""
    return FaultNode(
        node_id=node_id,
        description=description,
        children=list(children),
        test=test,
        step_context=frozenset(steps),
        probability=probability,
    )


_VAR = re.compile(r"\$(\w+)")


def substitute(text: str, params: dict) -> str:
    """Replace ``$var`` tokens with runtime parameters.

    Unknown variables are left as-is: diagnosis can still proceed, the
    corresponding test will simply report missing context (which is how
    the paper's timer-only triggers end up with weak diagnoses).
    """
    if "$" not in text:
        return text

    def repl(match: re.Match) -> str:
        key = match.group(1)
        value = params.get(key)
        return str(value) if value is not None else match.group(0)

    return _VAR.sub(repl, text)


def substitute_params(template: dict, params: dict) -> dict:
    """Instantiate a test's parameter template into a new dict.

    String values get ``$var`` substitution; the literal value ``"$var"``
    whose variable is missing stays unresolved (marker for weak context).
    """
    return {k: substitute(v, params) if isinstance(v, str) else v for k, v in template.items()}
