"""Remediation advice: from root cause to targeted fix.

The paper's introduction motivates diagnosis with the cost of the
alternative: "the default recovery is usually a complete but equally
risky rollback operation".  Knowing the root cause enables *fine-grained
targeted healing* instead.  This module maps confirmed root causes to
concrete remediation plans — the glue between POD-Diagnosis and the
authors' follow-on recovery work.

Plans are advisory objects (action name, human description, API calls it
would make, and whether it is safe to automate).  Executing the safely
automatable subset — e.g. reverting a corrupted launch configuration to
the target state — is :class:`repro.recovery.engine.RecoveryEngine`'s job
(:func:`repro.recovery.plan.build_recovery_plan` lifts these plans into
its verified, compensable actions).
"""

from __future__ import annotations

import dataclasses

from repro.operations.target import BY_CAUSE, FIELDS


@dataclasses.dataclass
class RemediationPlan:
    """One suggested fix for one root cause."""

    cause_id: str
    action: str
    description: str
    automatable: bool
    #: (api method, args, kwargs) calls an automated apply would issue.
    api_calls: list[tuple] = dataclasses.field(default_factory=list)
    #: The resource the action operates on (launch configuration name,
    #: key pair name, security group name, ...).  Two causes needing the
    #: same action on *different* targets are two distinct fixes.
    target: str | None = None


#: Root-cause leaf ids that deliberately have no remediation catalog
#: entry.  ``instance-unhealthy`` and ``termination-author`` are
#: evidence nodes (what happened), not prescriptions (what to do) — the
#: actionable advice lives on their sibling/parent causes.  The catalog
#: completeness test fails when a fault-tree leaf is neither in the
#: catalog nor listed here, so new trees can't silently lack plans.
KNOWN_UNMAPPED: frozenset[str] = frozenset({
    "instance-unhealthy",
    "termination-author",
})


#: cause node id -> (action, description template, automatable)
_CATALOG: dict[str, tuple[str, str, bool]] = {
    # A wrong target field, seen from either tree: restore that field.
    **{
        cause: (
            "restore-launch-configuration",
            f"Reset the launch configuration {row.setting} to {{{row.config_key}}}",
            True,
        )
        for row in FIELDS
        for cause in row.causes
    },
    "ami-unavailable": ("restore-image",
                        "Re-register or restore image {expected_image_id}; pause the"
                        " upgrade until the image is available", False),
    "lc-ami-missing": ("restore-image",
                       "Re-register or restore image {expected_image_id}", False),
    "key-pair-unavailable": ("recreate-key-pair",
                             "Recreate key pair {expected_key_name} (new material;"
                             " distribute to operators)", True),
    "lc-key-missing": ("recreate-key-pair",
                       "Recreate key pair {expected_key_name}", True),
    "security-group-unavailable": ("recreate-security-group",
                                   "Recreate security group {expected_security_group}"
                                   " and re-apply its rules", True),
    "lc-sg-missing": ("recreate-security-group",
                      "Recreate security group {expected_security_group}", True),
    "elb-unavailable": ("escalate-elb",
                        "ELB {elb_name} is unavailable — escalate to the provider;"
                        " consider pausing the upgrade", False),
    "deviation-elb-unavailable": ("escalate-elb",
                                  "ELB {elb_name} is unavailable — escalate to the provider", False),
    "asg-scale-in": ("reconcile-capacity",
                     "A concurrent scale-in changed desired capacity; confirm intent"
                     " with the owning team, then restore desired capacity to {N}", False),
    "account-limit-exceeded": ("free-capacity",
                               "The account instance limit is exhausted; negotiate with"
                               " the other teams or request a limit raise", False),
    "instance-terminated-externally": ("investigate-termination",
                                       "An instance was terminated outside the ASG; wait"
                                       " for CloudTrail and run the offline post-mortem", False),
    "transient-config-change": ("audit-change-control",
                                "A transient configuration change occurred and was"
                                " reverted; audit who is writing to {lc_name}", False),
    "concurrent-upgrade": ("coordinate-teams",
                           "Another deployment modified the launch configuration"
                           " mid-upgrade; serialise the two releases", False),
}


def plan_for(cause_id: str, params: dict) -> RemediationPlan | None:
    """The remediation plan for one root cause, or None if unknown."""
    entry = _CATALOG.get(cause_id)
    if entry is None:
        return None
    action, template, automatable = entry
    try:
        description = template.format(**{**_defaults(), **params})
    except (KeyError, IndexError):
        description = template
    plan = RemediationPlan(
        cause_id=cause_id, action=action, description=description, automatable=automatable
    )
    if action == "restore-launch-configuration":
        row = BY_CAUSE[cause_id]
        plan.target = params.get("lc_name")
        plan.api_calls = [
            ("update_launch_configuration", (plan.target,), {row.attr: params.get(row.config_key)})
        ]
    elif action == "recreate-key-pair":
        plan.target = params.get("expected_key_name")
        plan.api_calls = [("create_key_pair", (plan.target,), {})]
    elif action == "recreate-security-group":
        plan.target = params.get("expected_security_group")
        plan.api_calls = [("create_security_group", (plan.target,), {})]
    else:
        plan.target = _advisory_target(action, params)
    return plan


#: Param key naming the resource each advisory action concerns.
_ADVISORY_TARGET_KEYS = {
    "restore-image": "expected_image_id",
    "escalate-elb": "elb_name",
    "reconcile-capacity": "asg_name",
    "free-capacity": "asg_name",
    "investigate-termination": "asg_name",
    "audit-change-control": "lc_name",
    "coordinate-teams": "lc_name",
}


def _advisory_target(action: str, params: dict) -> str | None:
    key = _ADVISORY_TARGET_KEYS.get(action)
    return params.get(key) if key else None


def _defaults() -> dict:
    return {
        "expected_image_id": "<target-ami>",
        "expected_key_name": "<target-key>",
        "expected_security_groups": "<target-sgs>",
        "expected_security_group": "<target-sg>",
        "expected_instance_type": "<target-type>",
        "elb_name": "<elb>",
        "lc_name": "<lc>",
        "N": "<N>",
    }


def plans_for_report(
    report, params: dict, cause_params: dict[str, dict] | None = None
) -> list[RemediationPlan]:
    """Plans for every root cause of a diagnosis report.

    Deduplicated by ``(action, target)``: two causes prescribing the same
    action on the *same* resource are one fix, but the same action on
    *different* targets (e.g. recreating two different security groups)
    are distinct fixes and both survive.  ``cause_params`` optionally
    overrides ``params`` per cause node id — how a caller points two
    instances of the same cause class at different resources.
    """
    plans: list[RemediationPlan] = []
    seen: set[tuple[str, str | None]] = set()
    for cause in report.root_causes:
        merged = params
        if cause_params and cause.node_id in cause_params:
            merged = {**params, **cause_params[cause.node_id]}
        plan = plan_for(cause.node_id, merged)
        if plan is None or (plan.action, plan.target) in seen:
            continue
        seen.add((plan.action, plan.target))
        plans.append(plan)
    return plans
