"""The fault-tree walk (§III.B.4): every decision of a diagnosis, as a
function of the observations it is sent.

:func:`walk` yields a :class:`Look` per diagnostic test it needs observed
and is sent ``(observed, evidence, degraded)``; ``observed`` is None when
the test could not look.  Seeing a node's condition confirms its fault and
visits its children, most probable first; not seeing it means what the
node declares (``when_not_observed``); could not look, or an unresolved
``$var``, stops the walk below the node.  A confirmed leaf is a root
cause, a confirmed node no child of which confirms an *undetermined* one.
Within a walk each test is looked at once (§III.B.4 reuse); every node
sharing it maps the reused *observation* through its own declaration.

No I/O, no clock, no log (``tests/test_public_surface.py`` holds the
imports to that): ``DiagnosisEngine`` drives it live, and anything can
drive it from recorded observations.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.diagnosis.report import RootCause, TestExecution
from repro.faulttree.tree import CONFIRMED, EXCLUDED, INCONCLUSIVE, FaultNode


@dataclasses.dataclass(frozen=True)
class Look:
    """Observe ``node``'s test with ``params`` (instantiated, plus ``since``).
    ``decided`` holds the executions recorded since the previous look, so a
    driver records each decision at the virtual time it was made."""

    node: FaultNode
    params: dict
    decided: tuple[TestExecution, ...]


@dataclasses.dataclass
class _Walk:
    since: float
    seen: dict = dataclasses.field(default_factory=dict)  # test key -> observation
    tests: list = dataclasses.field(default_factory=list)
    told: int = 0  # how many of ``tests`` went out with a Look


def walk(roots: _t.Iterable[FaultNode], since: float) -> _t.Generator:
    """Walk ``roots`` in order, sharing one reuse table; return the root
    causes and the :class:`TestExecution` sequence."""
    state = _Walk(since)
    causes: list[RootCause] = []
    for root in roots:
        causes.extend((yield from _visit(state, root)))
    return causes, state.tests


# Module-level, not nested: a nested recursive def is a reference cycle.
def _visit(state: _Walk, node: FaultNode) -> _t.Generator:
    verdict = CONFIRMED if node.test is None else (yield from _verdict(state, node))
    if verdict in (EXCLUDED, INCONCLUSIVE):
        return []
    # Confirmed (or structural).
    if node.is_leaf:
        if node.test is None:
            # An untestable leaf can never be confirmed on evidence.
            return []
        return [RootCause(node.node_id, node.description, "confirmed", node.probability)]
    causes: list[RootCause] = []
    for child in node.ordered_children():
        causes.extend((yield from _visit(state, child)))
    if not causes and node.test is not None:
        # Evidence of a fault here, but nothing below could be pinned
        # down: the paper's "cannot determine why" terminal.
        return [RootCause(node.node_id, node.description, "undetermined", node.probability)]
    return causes


def _verdict(state: _Walk, node: FaultNode) -> _t.Generator:
    test = node.test
    params = dict(test.params)
    params.setdefault("since", state.since)
    key = (test.kind, test.name, tuple(sorted((k, str(v)) for k, v in params.items())))
    looked = state.seen.get(key)
    cached = looked is not None
    if not cached:
        # Unresolved variables mean the trigger context was too weak for
        # this test (e.g. timer-based detection with no instance id).
        unresolved = [k for k, v in params.items() if isinstance(v, str) and v.startswith("$")]
        if unresolved:
            looked = None, {"unresolved": unresolved}, False
        else:
            decided = tuple(state.tests[state.told:])
            state.told = len(state.tests)
            looked = yield Look(node, params, decided)
        state.seen[key] = looked
    observed, evidence, degraded = looked
    # The one place an observation becomes a verdict: seeing the condition
    # confirms the fault, the tree says what not seeing it means for this
    # node, and a test that could not look decides nothing.
    verdict = (
        INCONCLUSIVE if observed is None else CONFIRMED if observed else test.when_not_observed
    )
    state.tests.append(
        TestExecution(
            node_id=node.node_id,
            test_kind=test.kind,
            test_name=test.name,
            verdict=verdict,
            evidence=evidence,
            cached=cached,
            degraded=degraded,
            observed=observed,
            description=node.description,
        )
    )
    return verdict
