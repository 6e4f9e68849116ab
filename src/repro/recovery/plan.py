"""Recovery plans: confirmed root causes → a supervised action DAG.

The paper motivates diagnosis with the cost of the alternative — "the
default recovery is usually a complete but equally risky rollback
operation".  This module turns a diagnosis report's confirmed causes into
the *fine-grained targeted healing* that knowledge enables: a small DAG
of :class:`RecoveryAction`\\ s, each carrying

- an **idempotency key** (``action_id``): re-executing a plan never
  double-applies a fix, because every action's verification probe runs
  *before* its mutations and short-circuits when the expected state
  already holds;
- the API calls to issue, plus **compensation** (static undo calls, or a
  capture spec that reads the prior state so a partially-applied plan
  can roll back to it);
- a **verification probe**: re-read the cloud state through the
  consistent client and confirm the expected configuration before the
  action may be declared done;
- **dependencies**: a restored launch configuration referencing a
  recreated key pair or security group must wait for the recreation.

Non-automatable causes do not become actions; their descriptions are the
plan's ``advisory`` — the human-action list attached to an ``ESCALATED``
outcome.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.diagnosis.remediation import RemediationPlan, plans_for_report
from repro.operations.target import FIELDS, TargetConfig

#: Terminal outcome classes of a recovery attempt.
RECOVERED = "RECOVERED"
ESCALATED = "ESCALATED"


@dataclasses.dataclass
class VerificationProbe:
    """Re-read cloud state and confirm the expected configuration.

    ``expect`` holds, by describe key, the target fields the described
    resource must carry (the target's own comparison decides); with an
    empty ``expect`` the probe just confirms the resource exists.
    """

    method: str
    args: tuple
    expect: dict = dataclasses.field(default_factory=dict)

    def satisfied_by(self, described: _t.Any) -> bool:
        if not isinstance(described, dict):
            return False
        expect = TargetConfig.resolve(lambda row: self.expect.get(row.describe_key))
        return not expect.mismatches(described)


@dataclasses.dataclass
class RecoveryAction:
    """One idempotent, verified, compensable unit of the recovery DAG."""

    #: Idempotency key: ``action:target``.  Stable across attempts, so a
    #: re-executed plan recognises work a previous attempt completed.
    action_id: str
    action: str
    target: str | None
    cause_ids: list[str]
    description: str
    #: (method, args, kwargs) mutations to issue.
    api_calls: list[tuple]
    probe: VerificationProbe
    #: Static compensation calls (reverse order of application).
    undo: list[tuple] = dataclasses.field(default_factory=list)
    #: Capture compensation from prior state: (method, args, field map of
    #: describe-key → update-kwarg).  The engine reads the resource before
    #: mutating and synthesises an ``update_*`` undo call from it.
    undo_capture: tuple | None = None
    #: action_ids that must verify before this action may start.
    depends_on: list[str] = dataclasses.field(default_factory=list)
    max_attempts: int = 3
    #: Per-attempt deadline (virtual seconds), propagated into every API
    #: call and the verification probe — the hardened-client discipline.
    deadline: float = 120.0


@dataclasses.dataclass
class RecoveryPlan:
    """The action DAG plus the human-action plan for everything else."""

    actions: list[RecoveryAction] = dataclasses.field(default_factory=list)
    #: Human-action descriptions for non-automatable (or unconfirmed)
    #: causes — attached verbatim to an ESCALATED record.
    advisory: list[str] = dataclasses.field(default_factory=list)
    cause_ids: list[str] = dataclasses.field(default_factory=list)

    @property
    def automatable(self) -> bool:
        return bool(self.actions)

    def ordered_actions(self) -> list[RecoveryAction]:
        """Stable topological order of the DAG (Kahn's algorithm).

        Actions whose dependencies are all satisfied run in plan order;
        a dependency cycle (impossible from :func:`build_recovery_plan`,
        but plans can be hand-built) degrades to plan order for the
        remainder rather than looping forever.
        """
        by_id = {a.action_id: a for a in self.actions}
        done: set[str] = set()
        ordered: list[RecoveryAction] = []
        remaining = list(self.actions)
        while remaining:
            progressed = False
            for action in list(remaining):
                if all(d in done or d not in by_id for d in action.depends_on):
                    ordered.append(action)
                    done.add(action.action_id)
                    remaining.remove(action)
                    progressed = True
            if not progressed:  # cycle: fall back to plan order
                ordered.extend(remaining)
                break
        return ordered


def _action_from_plan(plan: RemediationPlan) -> RecoveryAction | None:
    """Lift one automatable remediation plan into a recovery action."""
    action_id = f"{plan.action}:{plan.target}"
    if plan.action == "restore-launch-configuration":
        changes = plan.api_calls[0][2] if plan.api_calls else {}
        restored = [row for row in FIELDS if row.attr in changes]
        expect = {row.describe_key: changes[row.attr] for row in restored}
        return RecoveryAction(
            action_id=action_id,
            action=plan.action,
            target=plan.target,
            cause_ids=[plan.cause_id],
            description=plan.description,
            api_calls=list(plan.api_calls),
            probe=VerificationProbe(
                "describe_launch_configuration", (plan.target,), expect
            ),
            undo_capture=(
                "describe_launch_configuration",
                (plan.target,),
                {row.describe_key: row.attr for row in restored},
            ),
        )
    if plan.action == "recreate-key-pair":
        return RecoveryAction(
            action_id=action_id,
            action=plan.action,
            target=plan.target,
            cause_ids=[plan.cause_id],
            description=plan.description,
            api_calls=list(plan.api_calls),
            probe=VerificationProbe("describe_key_pair", (plan.target,)),
            undo=[("delete_key_pair", (plan.target,), {})],
        )
    if plan.action == "recreate-security-group":
        return RecoveryAction(
            action_id=action_id,
            action=plan.action,
            target=plan.target,
            cause_ids=[plan.cause_id],
            description=plan.description,
            api_calls=list(plan.api_calls),
            probe=VerificationProbe("describe_security_group", (plan.target,)),
            undo=[("delete_security_group", (plan.target,), {})],
        )
    return None


#: Actions that (re)create a resource a restored launch configuration
#: may reference — they must verify first.
_CREATES = ("recreate-key-pair", "recreate-security-group")


def build_recovery_plan(report, params: dict) -> RecoveryPlan:
    """Build the action DAG for one (possibly merged) diagnosis report.

    Only *confirmed* automatable causes become actions — an undetermined
    cause is a hypothesis, and mutating production state on a hypothesis
    is exactly the conservatism the paper's operators exercise.  Every
    other cause with a catalog entry contributes its description to the
    advisory (human-action) list.
    """
    confirmed = {c.node_id for c in report.root_causes if c.status == "confirmed"}
    plan = RecoveryPlan()
    seen_causes: set[str] = set()
    for rem in plans_for_report(report, params):
        plan.cause_ids.append(rem.cause_id)
        seen_causes.add(rem.cause_id)
        action = _action_from_plan(rem) if rem.automatable else None
        if action is not None and rem.cause_id in confirmed:
            # Merge duplicate idempotency keys (distinct causes mapping to
            # the identical fix on the identical target).
            existing = next(
                (a for a in plan.actions if a.action_id == action.action_id), None
            )
            if existing is not None:
                existing.cause_ids.append(rem.cause_id)
            else:
                plan.actions.append(action)
        else:
            plan.advisory.append(rem.description)
    # Dependencies: restores reference resources the creates bring back.
    create_ids = [a.action_id for a in plan.actions if a.action in _CREATES]
    if create_ids:
        for action in plan.actions:
            if action.action == "restore-launch-configuration":
                action.depends_on = list(create_ids)
    return plan
