"""The assertion contract.

An :class:`Assertion` is a reusable, parameterised check of cloud state.
Evaluation is a simulation generator (API calls cost virtual time) taking
an :class:`AssertionEnvironment` plus instantiation parameters, returning
an :class:`~repro.assertions.results.AssertionResult`.

Two levels (§III.B.3): *high-level* assertions check the overall system
("the system has at least M instances with the new version") and take
longer to diagnose when they fail; *low-level* assertions check one node
and carry precise context.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.assertions.consistent_api import ConsistentApiClient
from repro.assertions.results import AssertionResult

HIGH_LEVEL = "high"
LOW_LEVEL = "low"


@dataclasses.dataclass
class AssertionEnvironment:
    """What an assertion may consult while evaluating.

    Mirrors Fig. 4's resources: the consistent AWS API, third-party
    monitors (Edda), and configuration repositories.
    """

    engine: _t.Any
    client: ConsistentApiClient
    #: What the diagnostic probes (:mod:`repro.diagnosis.tests`) consult
    #: beyond the API: the Edda-style monitor, region state (instance view
    #: + configuration write history) and CloudTrail (``None``: no access,
    #: so attribution cannot look).
    monitor: _t.Any
    state: _t.Any
    trail: _t.Any
    #: Configuration repository: expected desired state, keyed by name.
    config: dict = dataclasses.field(default_factory=dict)
    #: The watched operation's own API calls.
    operation_api_calls: list = dataclasses.field(default_factory=list)

    def expected(self, key: str, params: dict):
        """Resolve an expected value: explicit param beats config entry.

        Looking the value up *at evaluation time* (rather than at trigger
        time) is faithful to the paper — and is what makes the
        'should-be number changed by another thread' false-positive class
        possible at all.
        """
        if key in params:
            return params[key]
        return self.config.get(key)


class Assertion:
    """Base class for all assertions."""

    #: Stable identifier used in tags, bindings and fault-tree selection.
    assertion_id: str = "assertion"
    description: str = ""
    level: str = LOW_LEVEL
    #: Fault tree consulted when this assertion fails (may be None for
    #: purely informational assertions).
    fault_tree_id: str | None = None

    def evaluate(self, env: AssertionEnvironment, params: dict) -> _t.Generator:
        """Simulation generator returning an AssertionResult: this
        assertion's answer.  An API failure that leaves no answer is not
        caught here — the evaluation service makes it the failed result
        (and owns the ``timed_out`` / ``degraded`` flags)."""
        raise NotImplementedError

    # -- helpers for subclasses -------------------------------------------------

    def _result(
        self, passed: bool, detail: str, params: dict, observed: dict | None = None
    ) -> AssertionResult:
        """This assertion's answer; the evaluation service stamps its times."""
        return AssertionResult(
            assertion_id=self.assertion_id,
            passed=passed,
            detail=detail,
            params=dict(params),
            observed=dict(observed or {}),
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.assertion_id}>"
