"""Recovery plans: confirmed root causes → targeted, verified fixes.

The paper motivates diagnosis with the cost of the alternative — "the
default recovery is usually a complete but equally risky rollback
operation".  Knowing the root cause enables *fine-grained targeted
healing* instead.  This module is the one fix table: :data:`CATALOG` says
what to do about each fault-tree cause, and :func:`build_recovery_plan`
turns every confirmed automatable cause straight into a
:class:`RecoveryAction` carrying

- an **idempotency key** (``action_id``): re-executing a plan never
  double-applies a fix, because every action's verification probe runs
  *before* its mutations and short-circuits when the expected state
  already holds;
- the API calls to issue, plus **compensation**: a recreate deletes what
  it made, a restore puts back the values its launch configuration had
  before the first mutation;
- a **verification probe**: re-read the cloud state through the
  consistent client and confirm the expected configuration before the
  action may be declared done;
- **dependencies**: a restored launch configuration referencing a
  recreated key pair or security group must wait for the recreation, so
  the plan lists the recreates first and the one restore last.

Every other cause with a catalog row — undetermined, or one only a human
can fix — contributes its description to the plan's ``advisory``: the
human-action list attached to an ``ESCALATED`` outcome.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.operations.target import BY_CAUSE, FIELDS, TargetConfig, TargetField

#: Terminal outcome classes of a recovery attempt.
RECOVERED = "RECOVERED"
ESCALATED = "ESCALATED"

#: A wrong target field, seen from either tree: rewrite it in the launch
#: configuration the upgrade launches from.
RESTORE = "restore-launch-configuration"

#: Recreate a resource the launch configuration references: action ->
#: (repository key naming the resource, create, describe, delete method).
_RECREATES = {
    "recreate-key-pair": (
        "expected_key_name", "create_key_pair", "describe_key_pair", "delete_key_pair",
    ),
    "recreate-security-group": (
        "expected_security_group", "create_security_group", "describe_security_group",
        "delete_security_group",
    ),
}

#: cause node id -> (action, description template).  ``RESTORE`` and the
#: recreates are automated; every other action is for a human.
CATALOG: dict[str, tuple[str, str]] = {
    **{
        cause: (RESTORE, f"Reset the launch configuration {row.setting} to {{{row.config_key}}}")
        for row in FIELDS
        for cause in row.causes
    },
    "ami-unavailable": ("restore-image",
                        "Re-register or restore image {expected_image_id}; pause the"
                        " upgrade until the image is available"),
    "lc-ami-missing": ("restore-image", "Re-register or restore image {expected_image_id}"),
    "key-pair-unavailable": ("recreate-key-pair",
                             "Recreate key pair {expected_key_name} (new material;"
                             " distribute to operators)"),
    "lc-key-missing": ("recreate-key-pair", "Recreate key pair {expected_key_name}"),
    "security-group-unavailable": ("recreate-security-group",
                                   "Recreate security group {expected_security_group}"
                                   " and re-apply its rules"),
    "lc-sg-missing": ("recreate-security-group",
                      "Recreate security group {expected_security_group}"),
    "elb-unavailable": ("escalate-elb",
                        "ELB {elb_name} is unavailable — escalate to the provider;"
                        " consider pausing the upgrade"),
    "deviation-elb-unavailable": ("escalate-elb",
                                  "ELB {elb_name} is unavailable — escalate to the provider"),
    "asg-scale-in": ("reconcile-capacity",
                     "A concurrent scale-in changed desired capacity; confirm intent"
                     " with the owning team, then restore desired capacity to {N}"),
    "account-limit-exceeded": ("free-capacity",
                               "The account instance limit is exhausted; negotiate with"
                               " the other teams or request a limit raise"),
    "instance-terminated-externally": ("investigate-termination",
                                       "An instance was terminated outside the ASG; wait"
                                       " for CloudTrail and run the offline post-mortem"),
    "transient-config-change": ("audit-change-control",
                                "A transient configuration change occurred and was"
                                " reverted; audit who is writing to {lc_name}"),
    "concurrent-upgrade": ("coordinate-teams",
                           "Another deployment modified the launch configuration"
                           " mid-upgrade; serialise the two releases"),
}

#: Root-cause leaf ids that deliberately have no catalog row.
#: ``instance-unhealthy`` and ``termination-author`` are evidence nodes
#: (what happened), not prescriptions (what to do) — the actionable advice
#: lives on their sibling/parent causes.  The catalog completeness test
#: fails when a fault-tree leaf is neither in the catalog nor listed
#: here, so new trees can't silently lack fixes.
KNOWN_UNMAPPED: frozenset[str] = frozenset({
    "instance-unhealthy",
    "termination-author",
})


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
    """One idempotent, verified, compensable step of the plan."""

    #: Idempotency key: ``action:target``.  Stable across attempts, so a
    #: re-executed plan recognises work a previous attempt completed.
    action_id: str
    action: str
    target: str | None
    description: str
    #: (method, args, kwargs) mutations to issue.
    api_calls: list[tuple]
    probe: VerificationProbe
    #: Static compensation calls (reverse order of application).
    undo: list[tuple] = dataclasses.field(default_factory=list)
    #: action_ids that must verify before this action may start.
    depends_on: list[str] = dataclasses.field(default_factory=list)

    def compensation(self, prior: _t.Any) -> list[tuple]:
        """The calls that undo this action, given its target as read
        before the first mutation: a restore writes back the prior values
        of the fields it restores."""
        if self.action == RESTORE and isinstance(prior, dict):
            method, args, changes = self.api_calls[0]
            restored = {
                row.attr: prior[row.describe_key]
                for row in FIELDS
                if row.attr in changes and row.describe_key in prior
            }
            if restored:
                return [(method, args, restored)]
        return list(self.undo)


@dataclasses.dataclass
class RecoveryPlan:
    """The actions, in execution order, plus the human-action plan."""

    actions: list[RecoveryAction] = dataclasses.field(default_factory=list)
    #: Human-action descriptions for non-automatable (or unconfirmed)
    #: causes — attached verbatim to an ESCALATED record.
    advisory: list[str] = dataclasses.field(default_factory=list)

    @property
    def automatable(self) -> bool:
        return bool(self.actions)


def _describe(template: str, params: dict) -> str:
    """A catalog description filled from the configuration repository;
    the template itself when the repository lacks one of its keys."""
    try:
        return template.format_map(params)
    except KeyError:
        return template


def build_recovery_plan(causes: _t.Iterable, params: dict) -> RecoveryPlan:
    """The plan for diagnosed root causes (``node_id`` + ``status`` each)
    against the configuration repository ``params``.

    Only *confirmed* automatable causes become actions — an undetermined
    cause is a hypothesis, and mutating production state on a hypothesis
    is exactly the conservatism the paper's operators exercise.  Causes
    sharing an action share its one step: the recreate of one resource,
    or the one restore of the launch configuration, which rewrites every
    wrong field confirmed.  Every other cause with a catalog row adds its
    description to the advisory, once per action not already automated.
    """
    recreates: dict[str, RecoveryAction] = {}
    restored: dict[TargetField, str] = {}  # row -> description, in cause order
    advisory: dict[str, str] = {}
    for cause in causes:
        if cause.node_id not in CATALOG:
            continue
        action, template = CATALOG[cause.node_id]
        description = _describe(template, params)
        if cause.status != "confirmed" or not (action == RESTORE or action in _RECREATES):
            advisory.setdefault(action, description)
        elif action == RESTORE:
            restored.setdefault(BY_CAUSE[cause.node_id], description)
        elif action not in recreates:
            key, create, describe, delete = _RECREATES[action]
            target = params.get(key)
            recreates[action] = RecoveryAction(
                action_id=f"{action}:{target}",
                action=action,
                target=target,
                description=description,
                api_calls=[(create, (target,), {})],
                probe=VerificationProbe(describe, (target,)),
                undo=[(delete, (target,), {})],
            )

    plan = RecoveryPlan(actions=list(recreates.values()))
    if restored:
        lc = params.get("lc_name")
        changes = {row.attr: params.get(row.config_key) for row in restored}
        plan.actions.append(RecoveryAction(
            action_id=f"{RESTORE}:{lc}",
            action=RESTORE,
            target=lc,
            description="; ".join(restored.values()),
            api_calls=[("update_launch_configuration", (lc,), changes)],
            probe=VerificationProbe(
                "describe_launch_configuration",
                (lc,),
                {row.describe_key: changes[row.attr] for row in restored},
            ),
            depends_on=[action.action_id for action in recreates.values()],
        ))
    automated = {action.action for action in plan.actions}
    plan.advisory = [line for action, line in advisory.items() if action not in automated]
    return plan
