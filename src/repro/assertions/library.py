"""Pre-defined assertions for ASG/ELB-based operations (§III.B.3, §IV).

"We provide a set of pre-defined assertions to check cloud resources,
which operators can use directly."  These are the checks the rolling
upgrade binds to its steps, and the same classes double as the on-demand
diagnosis tests walked by the fault trees (e.g. *verify the security group
setting of the ASG*, as in the paper's diagnosis log excerpt).
"""

from __future__ import annotations

import typing as _t

from repro.assertions.base import Assertion, AssertionEnvironment, HIGH_LEVEL, LOW_LEVEL
from repro.cloud.errors import ResourceNotFound
from repro.operations.target import BY_FIELD, FIELDS, TargetConfig


def _target(env: AssertionEnvironment, params: dict) -> TargetConfig:
    """The target as the configuration repository holds it *now*: every
    expectation goes through ``env.expected`` at evaluation time, so a
    trigger parameter still beats the repository and a concurrent change
    of the repository is still seen (§VI.A's second false-positive class)."""
    return TargetConfig.resolve(lambda row: env.expected(row.config_key, params))


class AsgInstanceCountAssertion(Assertion):
    """High-level: "assert the system has N instances".

    Counts *active* (pending or running) ASG members — the fleet the ASG
    is maintaining — so the transient dip while a replacement boots does
    not flap the assertion; the control loop restores membership within
    one reconcile tick unless launches are genuinely failing.

    With ``mode="version"`` only *running* instances whose AMI is the
    target version count — the end-of-upgrade form, "assert the system
    has N instances with the new version".

    The expected count is resolved from the configuration repository *at
    evaluation start* — deliberately, because the paper's second
    false-positive class arises exactly from the should-be number being
    changed concurrently while a (long) evaluation is in flight.
    """

    assertion_id = "asg-has-n-instances"
    description = "the ASG has the expected number of active instances"
    level = HIGH_LEVEL
    fault_tree_id = "asg-instance-count"

    #: Counting modes: ``active`` (pending+running members — the fleet the
    #: ASG maintains), ``running`` (strict post-step form the watchdog
    #: evaluates: the replacement must actually be up), ``version``
    #: (running with the target AMI — the end-of-upgrade form).
    MODES = ("active", "running", "version")

    def __init__(self, convergence_timeout: float = 30.0, mode: str = "active") -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown counting mode {mode!r}")
        self.convergence_timeout = convergence_timeout
        self.mode = mode
        if mode == "version":
            self.assertion_id = "asg-has-n-new-version-instances"
            self.description = "the ASG has N running instances of the new version"
        elif mode == "running":
            self.assertion_id = "asg-has-n-running-instances"
            self.description = "the ASG has N running instances (post-step)"

    def evaluate(self, env: AssertionEnvironment, params: dict) -> _t.Generator:
        started = env.engine.now
        asg_name = env.expected("asg_name", params)
        expected = env.expected("desired_capacity", params)
        if asg_name is None or expected is None:
            return self._result(
                env, False, "missing asg_name/desired_capacity parameters", params, started
            )
        expected = int(expected)
        target_image = env.expected("expected_image_id", params)

        def counted(instances: list[dict]) -> list[str]:
            if self.mode == "version":
                return [
                    i["InstanceId"]
                    for i in instances
                    if i["State"]["Name"] == "running" and i["ImageId"] == target_image
                ]
            states = ("running",) if self.mode == "running" else ("running", "pending")
            return [i["InstanceId"] for i in instances if i["State"]["Name"] in states]

        window = float(params.get("convergence_timeout", self.convergence_timeout))
        instances = yield from env.client.call_until(
            "describe_instances_in_asg",
            asg_name,
            predicate=lambda result: len(counted(result)) == expected,
            timeout=window,
        )
        members = counted(instances)
        return self._result(
            env,
            True,
            f"ASG {asg_name} has {len(members)} instances",
            params,
            started,
            observed={"instances": members, "expected": expected},
        )


class InstanceVersionAssertion(Assertion):
    """Low-level: a specific new instance conforms to the target config.

    Checks AMI (the 'version'), and optionally key pair, security groups
    and instance type against the configuration repository — the subtle
    per-node errors of §III.B.3's low-level assertion scenario (ii).
    """

    assertion_id = "new-instance-correct-version"
    description = "the newly launched instance uses the target configuration"
    level = LOW_LEVEL
    fault_tree_id = "asg-wrong-version"

    def evaluate(self, env: AssertionEnvironment, params: dict) -> _t.Generator:
        started = env.engine.now
        instance_id = params.get("instanceid")
        if instance_id is None:
            return self._result(env, False, "no instance id in trigger context", params, started)
        described = yield from env.client.call("describe_instance", instance_id, consistent=True)
        observed = {"instance_id": instance_id}
        observed.update((row.describe_key, row.read(described)) for row in FIELDS)
        mismatches = [
            f"{row.setting}: expected {expected}, got {actual}"
            for row, expected, actual in _target(env, params).mismatches(described)
        ]
        if mismatches:
            return self._result(
                env,
                False,
                f"instance {instance_id} misconfigured ({'; '.join(mismatches)})",
                params,
                started,
                observed=observed,
            )
        return self._result(
            env,
            True,
            f"instance {instance_id} matches the target configuration",
            params,
            started,
            observed=observed,
        )


class AsgConfigAssertion(Assertion):
    """The ASG's launch configuration matches the target configuration.

    With ``field`` in the params, checks a single field — this is how the
    fault-tree diagnosis tests ("Verifying the security group setting of
    the ASG …") are expressed.
    """

    assertion_id = "asg-uses-correct-config"
    description = "the ASG's launch configuration matches the target configuration"
    level = LOW_LEVEL
    fault_tree_id = "asg-wrong-version"

    def evaluate(self, env: AssertionEnvironment, params: dict) -> _t.Generator:
        started = env.engine.now
        asg_name = env.expected("asg_name", params)
        if asg_name is None:
            return self._result(env, False, "missing asg_name parameter", params, started)
        asg = yield from env.client.call("describe_auto_scaling_group", asg_name, consistent=True)
        lc = yield from env.client.call(
            "describe_launch_configuration", asg["LaunchConfigurationName"], consistent=True
        )
        fields = [params["field"]] if "field" in params else list(BY_FIELD)
        rows = [BY_FIELD[field] for field in fields]
        observed = {"launch_configuration": lc["LaunchConfigurationName"]}
        observed.update((row.describe_key, row.read(lc)) for row in rows)
        mismatches = [
            f"{row.label}: expected {expected}, got {actual}"
            for row, expected, actual in _target(env, params).mismatches(lc, rows)
        ]
        if mismatches:
            return self._result(
                env,
                False,
                f"ASG {asg_name} is using a wrong {'/'.join(f for f in fields)}:"
                f" {'; '.join(mismatches)}",
                params,
                started,
                observed=observed,
            )
        checked = "/".join(fields)
        return self._result(
            env,
            True,
            f"The ASG {asg_name} is using a correct {checked}",
            params,
            started,
            observed=observed,
        )


class ElbRegistrationAssertion(Assertion):
    """The ELB exists and has the expected in-service instances."""

    assertion_id = "elb-has-registered-instances"
    description = "the ELB exists and serves the expected number of instances"
    level = HIGH_LEVEL
    fault_tree_id = "elb-registration"

    def __init__(self, convergence_timeout: float = 30.0) -> None:
        self.convergence_timeout = convergence_timeout

    def evaluate(self, env: AssertionEnvironment, params: dict) -> _t.Generator:
        started = env.engine.now
        elb_name = env.expected("elb_name", params)
        expected = env.expected("min_in_service", params)
        if elb_name is None:
            return self._result(env, False, "missing elb_name parameter", params, started)
        elb = yield from env.client.call("describe_load_balancer", elb_name, consistent=True)
        if elb.get("State") != "active":
            return self._result(
                env, False, f"ELB {elb_name} is {elb.get('State')}", params, started,
                observed={"state": elb.get("State")},
            )
        if expected is None:
            return self._result(env, True, f"ELB {elb_name} is active", params, started)
        expected = int(expected)

        def enough(health: list[dict]) -> bool:
            return sum(1 for h in health if h["State"] == "InService") >= expected

        window = float(params.get("convergence_timeout", self.convergence_timeout))
        health = yield from env.client.call_until(
            "describe_instance_health",
            elb_name,
            predicate=enough,
            timeout=window,
        )
        in_service = [h["InstanceId"] for h in health if h["State"] == "InService"]
        return self._result(
            env,
            True,
            f"ELB {elb_name} has {len(in_service)} in-service instances",
            params,
            started,
            observed={"in_service": in_service},
        )


class ResourceExistsAssertion(Assertion):
    """A named cloud resource exists (AMI / key pair / SG / ELB / LC).

    The building block of most fault-tree diagnosis tests for the
    resource-unavailability faults (types 5-8).
    """

    DESCRIBERS = {
        "ami": "describe_image",
        "key_pair": "describe_key_pair",
        "security_group": "describe_security_group",
        "load_balancer": "describe_load_balancer",
        "launch_configuration": "describe_launch_configuration",
    }

    #: Configuration-repository keys holding the canonical identifier of
    #: the operation's referenced resource — the fallback when the trigger
    #: carries no explicit identifier (e.g. the end-of-upgrade regression
    #: checks bound to the COMPLETED step).  A kind that is a target field
    #: is in the target's table instead.
    CONFIG_KEYS = {
        "load_balancer": "elb_name",
        "launch_configuration": "lc_name",
    }

    def __init__(self, kind: str) -> None:
        if kind not in self.DESCRIBERS:
            raise ValueError(f"unsupported resource kind {kind!r}")
        self.kind = kind
        self.assertion_id = f"{kind.replace('_', '-')}-exists"
        self.description = f"the referenced {kind.replace('_', ' ')} exists"
        self.level = LOW_LEVEL
        self.fault_tree_id = "resource-integrity"

    def _default_identifier(self, env: AssertionEnvironment, params: dict):
        row = BY_FIELD.get(self.kind)
        key = row.resource_key if row else self.CONFIG_KEYS.get(self.kind)
        return env.expected(key, params) if key else None

    def evaluate(self, env: AssertionEnvironment, params: dict) -> _t.Generator:
        started = env.engine.now
        identifier = (
            env.expected("identifier", params)
            or params.get(self.kind)
            or self._default_identifier(env, params)
        )
        if identifier is None:
            return self._result(env, False, f"no {self.kind} identifier given", params, started)
        try:
            described = yield from env.client.call(
                self.DESCRIBERS[self.kind], identifier, consistent=True
            )
        except ResourceNotFound as exc:
            # Not found is this assertion's answer; any other API failure
            # is the evaluation service's "could not read".
            return self._result(
                env,
                False,
                f"{self.kind} {identifier} does not exist: {exc}",
                params,
                started,
                observed={"identifier": identifier},
            )
        # ELBs additionally carry availability state.
        if self.kind == "load_balancer" and described.get("State") != "active":
            return self._result(
                env,
                False,
                f"load balancer {identifier} is {described.get('State')}",
                params,
                started,
                observed=described,
            )
        return self._result(
            env, True, f"{self.kind} {identifier} exists", params, started, observed=described
        )


def standard_rolling_upgrade_assertions(
    count_timeout: float = 30.0, elb_timeout: float = 30.0
) -> dict[str, Assertion]:
    """The assertion set the evaluation campaign registers.

    Keyed by assertion id; bindings to process steps live with the
    operation definition (see
    :func:`repro.operations.rolling_upgrade.standard_bindings`).
    """
    assertions: list[Assertion] = [
        AsgInstanceCountAssertion(convergence_timeout=count_timeout),
        AsgInstanceCountAssertion(convergence_timeout=count_timeout, mode="version"),
        AsgInstanceCountAssertion(convergence_timeout=min(15.0, count_timeout), mode="running"),
        InstanceVersionAssertion(),
        AsgConfigAssertion(),
        ElbRegistrationAssertion(convergence_timeout=elb_timeout),
        ResourceExistsAssertion("ami"),
        ResourceExistsAssertion("key_pair"),
        ResourceExistsAssertion("security_group"),
        ResourceExistsAssertion("load_balancer"),
        ResourceExistsAssertion("launch_configuration"),
    ]
    return {a.assertion_id: a for a in assertions}
