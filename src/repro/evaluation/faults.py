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

#: Seconds a transient fault stays after it first bites.
REVERT_AFTER = 25.0


@dataclasses.dataclass
class FaultPlan:
    """When and how one run's fault is injected."""

    fault_type: str
    inject_at: float  # seconds after upgrade start
    transient: bool = False

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


#: How the rolling upgrade's last log line begins: its completion line or
#: a failure line.  Nothing the operation does follows either.
TERMINAL_LINES = ("Rolling upgrade task completed", "Exception during")

#: Virtual seconds between looks for the launch configuration a
#: configuration fault corrupts, when the fault is due before it exists.
CONFIG_POLL = 1.0


class _FaultTrigger:
    """Fires one plan's fault once: at ``inject_at`` or on the operation's
    terminal log line, whichever comes first.

    Subscribed to the operation log as POD's processor is, and cut when
    it fires.  A class rather than a closure: a closure that unsubscribes
    itself references itself, which is a cycle.
    """

    def __init__(self, testbed, plan: FaultPlan, outcome: dict) -> None:
        self.testbed = testbed
        self.plan = plan
        self.outcome = outcome
        self.armed = True

    def __call__(self, record) -> None:
        if record.message.startswith(TERMINAL_LINES):
            reverting = self.fire()
            if reverting is not None:
                self.testbed.engine.process(reverting, name=f"revert-{self.plan.fault_type}")

    def injectable(self) -> bool:
        """A configuration fault corrupts the launch configuration the
        upgrade creates; a resource fault always has its resource."""
        testbed = self.testbed
        return self.plan.fault_type not in CONFIG_FAULTS or testbed.cloud.state.exists(
            "launch_configuration", testbed.stack.lc_v2
        )

    def fire(self) -> _t.Generator | None:
        """Inject now if still armed, and disarm; returns the transient
        revert loop still to run, or None.  A configuration fault whose
        launch configuration was never created injects nothing."""
        if not self.armed:
            return None
        self.armed = False
        testbed = self.testbed
        testbed.stream.unsubscribe(self)
        if not self.injectable():
            return None
        self.outcome["record"] = apply_fault(testbed, self.plan.fault_type)
        self.outcome["injected_at"] = testbed.engine.now
        return _revert_later(testbed, self.plan, self.outcome) if self.plan.transient else None


def _revert_later(testbed, plan: FaultPlan, outcome: dict) -> _t.Generator:
    """Revert a transient fault once it has bitten.

    The paper's transient faults were corrected "soon after" — but still
    after the fault had taken effect (otherwise there would have been
    nothing to detect).  Wait until the corrupted configuration actually
    bites (a wrong instance launches), then revert shortly afterwards,
    before on-demand diagnosis tests can observe the corruption.
    """
    injected = outcome["injected_at"]
    deadline = injected + 600.0
    while testbed.engine.now < deadline:
        if plan.fault_type == "ELB_UNAVAILABLE" or testbed.has_wrong_instance(
            lambda i: i.launch_time >= injected
        ):
            break
        yield testbed.engine.timeout(5.0)
    yield testbed.engine.timeout(REVERT_AFTER)
    testbed.cloud.injector.revert(outcome["record"])
    outcome["reverted_at"] = testbed.engine.now


def schedule_fault(testbed, plan: FaultPlan) -> dict:
    """Arm a fault plan against a testbed's upcoming upgrade.

    The fault fires ``plan.inject_at`` seconds from now or on the
    upgrade's terminal log line, whichever comes first, so it always
    lands during the operation ("inject at a random point of time during
    rolling upgrade").  A configuration fault due before the upgrade has
    created the launch configuration waits for it.  Returns a mutable
    record dict filled in as the plan executes; ``injected_at`` stays None
    only if the fault found nothing to corrupt or the run ended first.
    """
    outcome: dict = {"plan": plan, "injected_at": None, "reverted_at": None, "record": None}
    trigger = _FaultTrigger(testbed, plan, outcome)
    testbed.stream.subscribe(trigger)

    def timed() -> _t.Generator:
        try:
            yield testbed.engine.timeout(plan.inject_at)
            while trigger.armed and not trigger.injectable():
                yield testbed.engine.timeout(CONFIG_POLL)
        except GeneratorExit:
            # The run closed before the fault fired: leave no listener.
            testbed.stream.unsubscribe(trigger)
            raise
        reverting = trigger.fire()
        if reverting is not None:
            yield from reverting

    testbed.engine.process(timed(), name=f"fault-{plan.fault_type}")
    return outcome
