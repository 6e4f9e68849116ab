"""The standard fault trees for ASG/ELB-based rolling upgrade (Fig. 5).

One tree per assertion family, plus one for conformance-detected process
deviations.  Variables (``$...``) are instantiated from the runtime
request; ``steps`` scopes subtrees to the process context they belong to,
enabling the pruning the paper describes ("if the assertion after *New
instance ready…* triggered diagnosis, we prune all other sub-trees").

Probabilities order sibling visits and were set from the fault classes'
relative frequency in the paper's outage-report survey (configuration
faults ahead of rarer infrastructure faults).
"""

from __future__ import annotations

import functools as _functools

from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.tree import DiagnosticTest, FaultTree, node
from repro.operations.steps import (
    COMPLETED,
    DEREGISTER,
    READY,
    STATUS,
    TERMINATE,
    UPDATE_LC,
    WAIT_ASG,
)


def _assertion_test(name: str, **params) -> DiagnosticTest:
    return DiagnosticTest(kind="assertion", name=name, params=params)


def _custom_test(name: str, **params) -> DiagnosticTest:
    return DiagnosticTest(kind="custom", name=name, params=params)


def _wrong_config_children(prefix: str = "") -> list:
    """The '4 potential faults' of the paper's diagnosis log excerpt."""
    return [
        node(
            f"{prefix}wrong-security-group",
            "The ASG $asg_name is using a wrong security group",
            test=_assertion_test("asg-uses-correct-config", field="security_group"),
            probability=0.30,
        ),
        node(
            f"{prefix}wrong-key-pair",
            "The ASG $asg_name is using a wrong key pair",
            test=_assertion_test("asg-uses-correct-config", field="key_pair"),
            probability=0.28,
        ),
        node(
            f"{prefix}wrong-ami",
            "The ASG $asg_name is using a wrong AMI",
            test=_assertion_test("asg-uses-correct-config", field="ami"),
            probability=0.25,
        ),
        node(
            f"{prefix}wrong-instance-type",
            "The ASG $asg_name is using a wrong instance type",
            test=_assertion_test("asg-uses-correct-config", field="instance_type"),
            probability=0.17,
        ),
    ]


def _launch_failing_subtree(node_id: str = "instance-launch-failing") -> object:
    """Launch attempts failing inside the ASG control loop (faults 5-7 +
    the account limit added after the paper's fourth wrong-diagnosis
    class)."""
    return node(
        node_id,
        "The ASG $asg_name cannot launch replacement instances",
        node(
            "ami-unavailable",
            "AMI $expected_image_id is unavailable",
            test=_assertion_test("ami-exists", identifier="$expected_image_id"),
            probability=0.30,
        ),
        node(
            "key-pair-unavailable",
            "Key pair $expected_key_name is unavailable",
            test=_assertion_test("key-pair-exists", identifier="$expected_key_name"),
            probability=0.25,
        ),
        node(
            "security-group-unavailable",
            "Security group $expected_security_group is unavailable",
            test=_assertion_test("security-group-exists", identifier="$expected_security_group"),
            probability=0.25,
        ),
        node(
            "account-limit-exceeded",
            "The shared account's instance limit is exhausted",
            test=_custom_test("limit-exceeded-activity", asg_name="$asg_name"),
            probability=0.20,
        ),
        test=_custom_test("scaling-activities-failing", asg_name="$asg_name"),
        steps=(TERMINATE, WAIT_ASG, READY, STATUS, COMPLETED),
        probability=0.55,
    )


def _capacity_changed_subtree() -> object:
    """Fleet changed for non-launch reasons: concurrent scale-in or
    external instance termination (the paper can diagnose the former but
    not the latter without CloudTrail).

    Structural node: a scale-in changes desired capacity while an external
    termination does not, so no single gate test covers both children —
    each child carries its own probe.
    """
    return node(
        "capacity-changed",
        "The fleet of ASG $asg_name changed outside this operation",
        node(
            "asg-scale-in",
            "A concurrent scaling-in operation reduced ASG $asg_name",
            test=_custom_test("scale-in-occurred", asg_name="$asg_name"),
            probability=0.6,
        ),
        node(
            "instance-terminated-externally",
            "An instance of ASG $asg_name was terminated outside the ASG",
            node(
                "termination-author",
                "Identify who terminated the instance (requires CloudTrail)",
                # No delivered CloudTrail record is not "nobody did it".
                test=DiagnosticTest(
                    kind="custom",
                    name="cloudtrail-attribution",
                    params={"asg_name": "$asg_name"},
                    when_not_observed="inconclusive",
                ),
                probability=0.5,
            ),
            test=_custom_test("external-termination-occurred", asg_name="$asg_name"),
            probability=0.4,
        ),
        probability=0.45,
    )


def build_standard_fault_trees() -> FaultTreeRegistry:
    """All four standard trees, validated and registered."""
    registry = FaultTreeRegistry()

    # Tree 1: failure of "the system has N instances (with the new
    # version)" — the paper's Fig. 5.
    registry.register(
        FaultTree(
            tree_id="asg-instance-count",
            description="ASG $asg_name does not have $N instances with the new version",
            variables=("asg_name", "N", "expected_image_id", "expected_key_name",
                       "expected_security_group", "lc_name", "elb_name"),
            root=node(
                "no-n-instances",
                "The system does not have $N instances with the new version",
                node(
                    "create-lc-fails",
                    "Creating/updating launch configuration $lc_name failed",
                    node(
                        "lc-ami-missing",
                        "Referenced AMI $expected_image_id does not exist",
                        test=_assertion_test("ami-exists", identifier="$expected_image_id"),
                        probability=0.4,
                    ),
                    node(
                        "lc-key-missing",
                        "Referenced key pair $expected_key_name does not exist",
                        test=_assertion_test("key-pair-exists", identifier="$expected_key_name"),
                        probability=0.3,
                    ),
                    node(
                        "lc-sg-missing",
                        "Referenced security group $expected_security_group does not exist",
                        test=_assertion_test(
                            "security-group-exists", identifier="$expected_security_group"
                        ),
                        probability=0.3,
                    ),
                    test=_assertion_test(
                        "launch-configuration-exists", identifier="$lc_name"
                    ),
                    steps=(UPDATE_LC,),
                    probability=0.35,
                ),
                node(
                    "asg-wrong-config",
                    "The ASG $asg_name is using a wrong configuration",
                    *_wrong_config_children(),
                    test=_assertion_test("asg-uses-correct-config"),
                    steps=(READY, STATUS, UPDATE_LC, COMPLETED),
                    probability=0.5,
                ),
                _launch_failing_subtree(),
                _capacity_changed_subtree(),
                node(
                    "elb-registration-failure",
                    "New instances fail to register with ELB $elb_name",
                    node(
                        "elb-unavailable",
                        "ELB $elb_name is unavailable",
                        test=_assertion_test("load-balancer-exists", identifier="$elb_name"),
                        probability=0.7,
                    ),
                    test=_assertion_test(
                        "elb-has-registered-instances",
                        elb_name="$elb_name",
                        min_in_service="$N",
                        convergence_timeout=1.5,
                    ),
                    steps=(DEREGISTER, READY, STATUS, COMPLETED),
                    probability=0.30,
                ),
            ),
        )
    )

    # Tree 2: failure of the low-level "new instance uses correct
    # version/configuration" assertion — the excerpt's 4 checks plus the
    # transient / concurrent-change explanations.
    registry.register(
        FaultTree(
            tree_id="asg-wrong-version",
            description="Instance $instanceid does not match the target configuration",
            variables=("asg_name", "instanceid"),
            root=node(
                "instance-misconfigured",
                "A new instance of ASG $asg_name does not match the target configuration",
                node(
                    "lc-corrupted",
                    "The ASG's launch configuration deviates from the target",
                    *_wrong_config_children(prefix="lc-"),
                    test=_assertion_test("asg-uses-correct-config"),
                    probability=0.6,
                ),
                node(
                    "transient-config-change",
                    "The launch configuration changed and was reverted (transient)",
                    test=_custom_test("lc-config-flapped", lc_name="$lc_name"),
                    probability=0.2,
                ),
                node(
                    "concurrent-upgrade",
                    "A simultaneous upgrade replaced the launch configuration",
                    test=_custom_test("concurrent-lc-update", asg_name="$asg_name"),
                    probability=0.2,
                ),
            ),
        )
    )

    # Tree 3: failure of the ELB registration assertion (fault 8 lives
    # here).
    registry.register(
        FaultTree(
            tree_id="elb-registration",
            description="ELB $elb_name does not serve the expected instances",
            variables=("elb_name", "asg_name", "N"),
            root=node(
                "elb-not-serving",
                "ELB $elb_name does not serve the expected instances",
                node(
                    "elb-unavailable",
                    "ELB $elb_name is unavailable or deleted",
                    test=_assertion_test("load-balancer-exists", identifier="$elb_name"),
                    probability=0.5,
                ),
                node(
                    "instances-not-in-service",
                    "Instances exist but are not in service",
                    _launch_failing_subtree(node_id="registration-launch-failing"),
                    node(
                        "instance-unhealthy",
                        "Registered instances are failing health checks",
                        test=_custom_test("instances-out-of-service", elb_name="$elb_name"),
                        probability=0.4,
                    ),
                    _capacity_changed_subtree(),
                    probability=0.5,
                ),
            ),
        )
    )

    # Tree 3b: failure of a bare resource-existence assertion (the
    # end-of-upgrade regression checks): each referenced resource is
    # itself a candidate root cause.
    registry.register(
        FaultTree(
            tree_id="resource-integrity",
            description="A resource the operation references is unavailable",
            variables=("expected_image_id", "expected_key_name",
                       "expected_security_group", "elb_name"),
            root=node(
                "referenced-resource-missing",
                "A resource referenced by the operation is unavailable",
                node(
                    "ami-unavailable",
                    "AMI $expected_image_id is unavailable",
                    test=_assertion_test("ami-exists", identifier="$expected_image_id"),
                    probability=0.3,
                ),
                node(
                    "key-pair-unavailable",
                    "Key pair $expected_key_name is unavailable",
                    test=_assertion_test("key-pair-exists", identifier="$expected_key_name"),
                    probability=0.25,
                ),
                node(
                    "security-group-unavailable",
                    "Security group $expected_security_group is unavailable",
                    test=_assertion_test(
                        "security-group-exists", identifier="$expected_security_group"
                    ),
                    probability=0.25,
                ),
                node(
                    "elb-unavailable",
                    "ELB $elb_name is unavailable",
                    test=_assertion_test("load-balancer-exists", identifier="$elb_name"),
                    probability=0.2,
                ),
            ),
        )
    )

    # Tree 4: conformance-detected deviation (unknown/unfit/error lines).
    registry.register(
        FaultTree(
            tree_id="process-deviation",
            description="The operation process deviated from the model",
            variables=("asg_name", "elb_name", "N"),
            root=node(
                "process-deviated",
                "Execution of the operation deviates from the process model",
                node(
                    "deviation-elb-unavailable",
                    "ELB $elb_name disappeared mid-operation",
                    test=_assertion_test("load-balancer-exists", identifier="$elb_name"),
                    steps=(DEREGISTER, READY, STATUS, WAIT_ASG, TERMINATE),
                    probability=0.35,
                ),
                _launch_failing_subtree(node_id="deviation-launch-failing"),
                _capacity_changed_subtree(),
            ),
        )
    )

    return registry


#: Ground-truth mapping used by the evaluation: which root-cause node a
#: perfect diagnosis should identify for each injected fault type.
EXPECTED_ROOT_CAUSE = {
    "AMI_CHANGED": {"wrong-ami", "lc-wrong-ami"},
    "KEYPAIR_WRONG": {"wrong-key-pair", "lc-wrong-key-pair"},
    "SG_WRONG": {"wrong-security-group", "lc-wrong-security-group"},
    "INSTANCE_TYPE_CHANGED": {"wrong-instance-type", "lc-wrong-instance-type"},
    "AMI_UNAVAILABLE": {"ami-unavailable", "lc-ami-missing"},
    "KEYPAIR_UNAVAILABLE": {"key-pair-unavailable", "lc-key-missing"},
    "SG_UNAVAILABLE": {"security-group-unavailable", "lc-sg-missing"},
    "ELB_UNAVAILABLE": {"elb-unavailable", "deviation-elb-unavailable", "elb-registration-failure"},
    "SCALE_IN": {"asg-scale-in"},
    "RANDOM_TERMINATION": {"instance-terminated-externally"},
    "ACCOUNT_LIMIT": {"account-limit-exceeded"},
}


@_functools.lru_cache(maxsize=1)
def shared_standard_fault_trees() -> FaultTreeRegistry:
    """Process-wide warm copy of the standard fault-tree registry.

    Diagnosis always works on :func:`~repro.faulttree.instantiate.instantiate_tree`
    *copies*, never the registry trees themselves, so one registry safely
    serves every run in a process (the per-worker warm-state half of the
    parallel-campaign speedup).  Callers that want to register extra trees
    must build their own registry with :func:`build_standard_fault_trees`.
    """
    return build_standard_fault_trees()
