"""The 8 injected fault types (§V.C) and their application to a testbed.

Faults 1-4 are configuration corruptions (logs stay normal — only
assertions can see them); faults 5-8 are resource disappearances (they
also perturb the log trace, so conformance checking can flag a subset of
runs before any assertion fires).
"""

from __future__ import annotations

import dataclasses
import typing as _t

#: Paper order.
FAULT_TYPES = (
    "AMI_CHANGED",
    "KEYPAIR_WRONG",
    "SG_WRONG",
    "INSTANCE_TYPE_CHANGED",
    "AMI_UNAVAILABLE",
    "KEYPAIR_UNAVAILABLE",
    "SG_UNAVAILABLE",
    "ELB_UNAVAILABLE",
)

#: Faults 1-4 corrupt the new launch configuration; 5-8 take a resource
#: the stack references away.
CONFIG_FAULTS = FAULT_TYPES[:4]
RESOURCE_FAULTS = FAULT_TYPES[4:]

#: Configuration faults support the transient (inject-then-revert)
#: variant that produced the paper's third wrong-diagnosis class.
REVERTIBLE = frozenset(CONFIG_FAULTS) | {"ELB_UNAVAILABLE"}


@dataclasses.dataclass
class FaultPlan:
    """When and how one run's fault is injected."""

    fault_type: str
    inject_at: float  # seconds after upgrade start
    transient: bool = False
    revert_after: float = 25.0

    def __post_init__(self) -> None:
        if self.fault_type not in FAULT_TYPES:
            raise ValueError(f"unknown fault type {self.fault_type!r}")
        if self.transient and self.fault_type not in REVERTIBLE:
            raise ValueError(f"fault {self.fault_type} cannot be transient")


def apply_fault(testbed, fault_type: str):
    """Inject one fault into a testbed *now*; returns the InjectionRecord.

    The rogue resources configuration faults point at are created on the
    fly under a separate principal — exactly what a concurrent independent
    team's change looks like.
    """
    injector = testbed.cloud.injector
    stack = testbed.stack
    rogue_api = testbed.cloud.api("rogue-team")
    if fault_type == "AMI_CHANGED":
        rogue = rogue_api.register_image("rogue-release", "v9")["ImageId"]
        return injector.change_lc_ami(stack.lc_v2, rogue)
    if fault_type == "KEYPAIR_WRONG":
        if not testbed.cloud.state.exists("key_pair", "key-rogue"):
            rogue_api.create_key_pair("key-rogue")
        return injector.change_lc_key_pair(stack.lc_v2, "key-rogue")
    if fault_type == "SG_WRONG":
        if not testbed.cloud.state.exists("security_group", "sg-rogue"):
            rogue_api.create_security_group("sg-rogue")
        return injector.change_lc_security_group(stack.lc_v2, "sg-rogue")
    if fault_type == "INSTANCE_TYPE_CHANGED":
        return injector.change_lc_instance_type(stack.lc_v2, "m1.xlarge")
    if fault_type == "AMI_UNAVAILABLE":
        return injector.make_ami_unavailable(stack.ami_v2)
    if fault_type == "KEYPAIR_UNAVAILABLE":
        return injector.make_key_pair_unavailable(stack.key_name)
    if fault_type == "SG_UNAVAILABLE":
        return injector.make_security_group_unavailable(stack.security_group)
    if fault_type == "ELB_UNAVAILABLE":
        return injector.make_elb_unavailable(stack.elb_name)
    raise ValueError(f"unknown fault type {fault_type!r}")


def schedule_fault(testbed, plan: FaultPlan) -> dict:
    """Arm a fault plan against a testbed's upcoming upgrade.

    Returns a mutable record dict filled in as the plan executes
    (``injected_at`` / ``reverted_at`` stay None if the upgrade finishes
    first — "inject at a random point *during* rolling upgrade").
    """
    outcome: dict = {"plan": plan, "injected_at": None, "reverted_at": None, "record": None}

    def runner() -> _t.Generator:
        yield testbed.engine.timeout(plan.inject_at)
        upgrade = testbed.upgrade
        if upgrade is not None and upgrade.status not in ("running",):
            return  # upgrade already over; nothing to corrupt mid-flight
        record = apply_fault(testbed, plan.fault_type)
        outcome["record"] = record
        outcome["injected_at"] = testbed.engine.now
        if plan.transient:
            # The paper's transient faults were corrected "soon after" —
            # but still after the fault had taken effect (otherwise there
            # would have been nothing to detect).  Wait until the corrupted
            # configuration actually bites (a wrong instance launches),
            # then revert shortly afterwards, before on-demand diagnosis
            # tests can observe the corruption.
            injected = testbed.engine.now
            deadline = injected + 600.0
            while testbed.engine.now < deadline:
                if plan.fault_type == "ELB_UNAVAILABLE" or testbed.has_wrong_instance(
                    lambda i: i.launch_time >= injected
                ):
                    break
                yield testbed.engine.timeout(5.0)
            yield testbed.engine.timeout(plan.revert_after)
            testbed.cloud.injector.revert(record)
            outcome["reverted_at"] = testbed.engine.now

    testbed.engine.process(runner(), name=f"fault-{plan.fault_type}")
    return outcome
