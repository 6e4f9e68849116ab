"""Fault-injection hooks on the simulated cloud.

These are the *mechanisms*; the evaluation campaign (`repro.evaluation`)
decides which fault to inject into which run, when, and whether the fault
is transient (reverted shortly after injection — the paper's third
wrong-diagnosis class).

Each injector changes cloud state (through ``CloudState.write``) exactly
the way the corresponding real event would: a concurrent team swapping
the launch configuration's AMI, a key pair deleted by an operator, an ELB
service disruption, etc.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cloud.state import CloudState


@dataclasses.dataclass
class InjectionRecord:
    """Bookkeeping for one injected fault (ground truth for metrics)."""

    time: float
    fault_type: str
    target: str
    details: dict
    reverted_at: float | None = None


class FaultInjector:
    """Mutates cloud state to realise the paper's 8 fault types."""

    def __init__(self, engine, state: CloudState, trail=None) -> None:
        self.engine = engine
        self.state = state
        #: Chaos actions are themselves API calls from *someone*; with a
        #: CloudTrail attached, random terminations leave delayed audit
        #: records — which is what lets offline analysis attribute them.
        self.trail = trail
        self.injections: list[InjectionRecord] = []

    def _log(self, fault_type: str, target: str, **details) -> InjectionRecord:
        record = InjectionRecord(
            time=self.engine.now, fault_type=fault_type, target=target, details=details
        )
        self.injections.append(record)
        return record

    # -- configuration faults (1-4): logs stay normal ---------------------

    def change_lc_ami(self, lc_name: str, rogue_image_id: str) -> InjectionRecord:
        """Fault 1 — AMI changed during upgrade (mixed-version hazard)."""
        original = self.state.get("launch_configuration", lc_name).image_id
        self.state.write("launch_configuration", lc_name, self.engine.now, image_id=rogue_image_id)
        return self._log("AMI_CHANGED", lc_name, original=original, rogue=rogue_image_id)

    def change_lc_key_pair(self, lc_name: str, rogue_key_name: str) -> InjectionRecord:
        """Fault 2 — key pair management fault (wrong key in the LC)."""
        original = self.state.get("launch_configuration", lc_name).key_name
        self.state.write("launch_configuration", lc_name, self.engine.now, key_name=rogue_key_name)
        return self._log("KEYPAIR_WRONG", lc_name, original=original, rogue=rogue_key_name)

    def change_lc_security_group(self, lc_name: str, rogue_group: str) -> InjectionRecord:
        """Fault 3 — security group configuration fault."""
        original = list(self.state.get("launch_configuration", lc_name).security_groups)
        self.state.write(
            "launch_configuration", lc_name, self.engine.now, security_groups=(rogue_group,)
        )
        return self._log("SG_WRONG", lc_name, original=original, rogue=rogue_group)

    def change_lc_instance_type(self, lc_name: str, rogue_type: str) -> InjectionRecord:
        """Fault 4 — instance type changed during upgrade."""
        original = self.state.get("launch_configuration", lc_name).instance_type
        self.state.write("launch_configuration", lc_name, self.engine.now, instance_type=rogue_type)
        return self._log("INSTANCE_TYPE_CHANGED", lc_name, original=original, rogue=rogue_type)

    # -- resource faults (5-8): launches / registrations fail --------------

    def make_ami_unavailable(self, image_id: str) -> InjectionRecord:
        """Fault 5 — AMI deregistered mid-upgrade."""
        if self.state.exists("ami", image_id):
            self.state.delete("ami", image_id, self.engine.now)
        return self._log("AMI_UNAVAILABLE", image_id)

    def make_key_pair_unavailable(self, key_name: str) -> InjectionRecord:
        """Fault 6 — key pair deleted mid-upgrade."""
        if self.state.exists("key_pair", key_name):
            self.state.delete("key_pair", key_name, self.engine.now)
        return self._log("KEYPAIR_UNAVAILABLE", key_name)

    def make_security_group_unavailable(self, group_name: str) -> InjectionRecord:
        """Fault 7 — security group deleted mid-upgrade."""
        if self.state.exists("security_group", group_name):
            self.state.delete("security_group", group_name, self.engine.now)
        return self._log("SG_UNAVAILABLE", group_name)

    def make_elb_unavailable(self, elb_name: str) -> InjectionRecord:
        """Fault 8 — ELB service disruption (cf. the Dec-2012 ELB outage)."""
        if self.state.exists("load_balancer", elb_name):
            self.state.write("load_balancer", elb_name, self.engine.now, available=False)
        return self._log("ELB_UNAVAILABLE", elb_name)

    # -- reverts (transient faults) -----------------------------------------

    def revert(self, record: InjectionRecord) -> None:
        """Undo an injection — models the transient-fault class where the
        root cause has vanished by the time diagnosis tests run."""
        now = self.engine.now
        handlers: dict[str, _t.Callable[[InjectionRecord], None]] = {
            "AMI_CHANGED": self._revert_lc_field("image_id"),
            "KEYPAIR_WRONG": self._revert_lc_field("key_name"),
            "SG_WRONG": self._revert_lc_field("security_groups"),
            "INSTANCE_TYPE_CHANGED": self._revert_lc_field("instance_type"),
            "ELB_UNAVAILABLE": self._revive_elb,
        }
        handler = handlers.get(record.fault_type)
        if handler is None:
            raise ValueError(f"fault type {record.fault_type} is not revertible")
        handler(record)
        record.reverted_at = now

    def _revert_lc_field(self, field: str) -> _t.Callable[[InjectionRecord], None]:
        def undo(record: InjectionRecord) -> None:
            if not self.state.exists("launch_configuration", record.target):
                return
            original = {field: record.details["original"]}
            self.state.write("launch_configuration", record.target, self.engine.now, **original)

        return undo

    def _revive_elb(self, record: InjectionRecord) -> None:
        if self.state.exists("load_balancer", record.target):
            self.state.write("load_balancer", record.target, self.engine.now, available=True)

    # -- interference (not counted as injected faults) -----------------------

    def terminate_random_instance(self, asg_name: str, rng) -> str | None:
        """Randomly kill a running instance — the paper's 'uncertainty of
        cloud infrastructure' confounder."""
        candidates = self.state.running_instances(asg_name)
        if not candidates:
            return None
        victim = rng.choice(candidates)
        now = self.engine.now
        self.state.finish_termination(victim.instance_id, now, terminate_time=now)
        if self.trail is not None:
            self.trail.record(
                "TerminateInstances", "chaos-script", {"InstanceId": victim.instance_id}
            )
        self._log("RANDOM_TERMINATION", victim.instance_id, asg=asg_name)
        return victim.instance_id
