"""The 8 injected fault types (§V.C), declared once, and their scheduling.

Each fault type is one :class:`Fault` row of :data:`FAULTS`, holding
everything the program knows about it: its class, what it does to the
testbed (through the cloud's two injection mechanisms), whether it can
be reverted and which root causes a perfect diagnosis confirms.

Faults 1-4 are configuration corruptions (logs stay normal — only
assertions can see them); faults 5-8 take away a resource the stack
references (they also perturb the log trace, so conformance checking can
flag a subset of runs before any assertion fires).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cloud.faults import InjectionRecord
from repro.operations.target import BY_FIELD, TargetField

#: The principal a concurrent independent team's changes come from.
ROGUE = "rogue-team"


class Fault(_t.NamedTuple):
    """One injected fault type, acting on the ``kind`` resource that the
    testbed stack's ``stack_attr`` names.

    A configuration fault (``field`` set) overwrites that target field of
    the upgrade's new launch configuration with the value ``rogue``
    makes.  A resource fault takes its resource away: it removes it, or,
    with ``disable``, overwrites those fields of it instead.
    """

    name: str
    kind: str
    stack_attr: str
    #: Root-cause node ids a perfect diagnosis confirms.
    causes: frozenset[str]
    field: TargetField | None = None
    rogue: _t.Callable[[_t.Any], _t.Any] | None = None
    disable: _t.Mapping[str, _t.Any] | None = None

    @property
    def configuration(self) -> bool:
        return self.field is not None

    @property
    def revertible(self) -> bool:
        """A change records what it overwrote; a removal is final."""
        return self.configuration or self.disable is not None

    def apply(self, cloud, stack) -> InjectionRecord:
        """Inject this fault into ``cloud``'s ``stack`` *now*."""
        injector, target = cloud.injector, getattr(stack, self.stack_attr)
        if self.configuration:
            rogue = self.rogue(cloud)
            value = (rogue,) if self.field.many else rogue
            return injector.change(self.kind, target, **{self.field.attr: value})
        if self.disable is not None:
            return injector.change(self.kind, target, **self.disable)
        return injector.remove(self.kind, target)


# The rogue values configuration faults point at are created on the fly
# under a separate principal — exactly what a concurrent independent
# team's change looks like.


def _rogue_image(cloud) -> str:
    return cloud.api(ROGUE).register_image("rogue-release", "v9")["ImageId"]


def _rogue_key_pair(cloud) -> str:
    if not cloud.state.exists("key_pair", "key-rogue"):
        cloud.api(ROGUE).create_key_pair("key-rogue")
    return "key-rogue"


def _rogue_security_group(cloud) -> str:
    if not cloud.state.exists("security_group", "sg-rogue"):
        cloud.api(ROGUE).create_security_group("sg-rogue")
    return "sg-rogue"


def _configuration(name: str, field: str, rogue) -> Fault:
    row = BY_FIELD[field]
    return Fault(name, "launch_configuration", "lc_v2", frozenset({row.cause}), row, rogue)


def _resource(name: str, kind: str, stack_attr: str, causes, disable=None) -> Fault:
    return Fault(name, kind, stack_attr, frozenset(causes), disable=disable)


#: Every fault type, in paper order.
FAULTS = {
    fault.name: fault
    for fault in (
        _configuration("AMI_CHANGED", "ami", _rogue_image),
        _configuration("KEYPAIR_WRONG", "key_pair", _rogue_key_pair),
        _configuration("SG_WRONG", "security_group", _rogue_security_group),
        _configuration("INSTANCE_TYPE_CHANGED", "instance_type", lambda cloud: "m1.xlarge"),
        _resource("AMI_UNAVAILABLE", "ami", "ami_v2", ("ami-unavailable", "lc-ami-missing")),
        _resource("KEYPAIR_UNAVAILABLE", "key_pair", "key_name",
                  ("key-pair-unavailable", "lc-key-missing")),
        _resource("SG_UNAVAILABLE", "security_group", "security_group",
                  ("security-group-unavailable", "lc-sg-missing")),
        # Cf. the Dec-2012 ELB service disruption: the balancer stays, unusable.
        _resource("ELB_UNAVAILABLE", "load_balancer", "elb_name",
                  ("elb-unavailable", "elb-registration-failure"), disable={"available": False}),
    )
}

FAULT_TYPES = tuple(FAULTS)
CONFIG_FAULTS = tuple(name for name, fault in FAULTS.items() if fault.configuration)
RESOURCE_FAULTS = tuple(name for name, fault in FAULTS.items() if not fault.configuration)
#: The faults with a transient (inject-then-revert) variant, which
#: produced the paper's third wrong-diagnosis class.
REVERTIBLE = frozenset(name for name, fault in FAULTS.items() if fault.revertible)

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


def apply_fault(testbed, fault_type: str) -> InjectionRecord:
    """Inject one fault into a testbed *now*; returns its record."""
    return FAULTS[fault_type].apply(testbed.cloud, testbed.stack)


#: How the rolling upgrade's last log line begins: its completion line or
#: a failure line.  Nothing the operation does follows either.
TERMINAL_LINES = ("Rolling upgrade task completed", "Exception during")

#: Virtual seconds between looks for the launch configuration a
#: configuration fault corrupts, when the fault is due before it exists.
CONFIG_POLL = 1.0


class FaultTrigger:
    """Fires one plan's fault once: at ``inject_at`` or on the operation's
    terminal log line, whichever comes first.

    Subscribed to the operation log as POD's processor is, and cut when
    it fires.  A class rather than a closure: a closure that unsubscribes
    itself references itself, which is a cycle.
    """

    def __init__(self, testbed, plan: FaultPlan) -> None:
        self.testbed = testbed
        self.plan = plan
        self.armed = True
        #: The injection, once the fault fired (its ``time``) and, for a
        #: transient fault, was reverted (its ``reverted_at``).  Stays None
        #: only if the fault found nothing to corrupt or the run ended first.
        self.record: InjectionRecord | None = None

    def __call__(self, record) -> None:
        if record.message.startswith(TERMINAL_LINES):
            reverting = self.fire()
            if reverting is not None:
                self.testbed.engine.process(reverting, name=f"revert-{self.plan.fault_type}")

    def injectable(self) -> bool:
        """A configuration fault corrupts the launch configuration the
        upgrade creates; a resource fault always has its resource."""
        fault = FAULTS[self.plan.fault_type]
        return not fault.configuration or self.testbed.cloud.state.exists(
            fault.kind, getattr(self.testbed.stack, fault.stack_attr)
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
        self.record = apply_fault(testbed, self.plan.fault_type)
        return _revert_later(testbed, self.plan, self.record) if self.plan.transient else None


def _revert_later(testbed, plan: FaultPlan, record: InjectionRecord) -> _t.Generator:
    """Revert a transient fault once it has bitten.

    The paper's transient faults were corrected "soon after" — but still
    after the fault had taken effect (otherwise there would have been
    nothing to detect).  Wait until the corrupted configuration actually
    bites (a wrong instance launches; a disabled resource bites at once),
    then revert shortly afterwards, before on-demand diagnosis tests can
    observe the corruption.
    """
    injected = record.time
    deadline = injected + 600.0
    configuration = plan.fault_type in CONFIG_FAULTS
    while testbed.engine.now < deadline:
        if not configuration or testbed.has_wrong_instance(lambda i: i.launch_time >= injected):
            break
        yield testbed.engine.timeout(5.0)
    yield testbed.engine.timeout(REVERT_AFTER)
    testbed.cloud.injector.revert(record)


def schedule_fault(testbed, plan: FaultPlan) -> FaultTrigger:
    """Arm a fault plan against a testbed's upcoming upgrade.

    The fault fires ``plan.inject_at`` seconds from now or on the
    upgrade's terminal log line, whichever comes first, so it always
    lands during the operation ("inject at a random point of time during
    rolling upgrade").  A configuration fault due before the upgrade has
    created the launch configuration waits for it.  Returns the armed
    trigger, whose ``record`` is the injection once it happened.
    """
    trigger = FaultTrigger(testbed, plan)
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
    return trigger
