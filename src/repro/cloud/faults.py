"""Fault-injection mechanisms on the simulated cloud.

These are the *mechanisms*; the evaluation campaign (`repro.evaluation`)
declares the fault types, decides which fault to inject into which run,
when, and whether the fault is transient (reverted shortly after
injection — the paper's third wrong-diagnosis class).

There are two ways to inject, each changing cloud state (through
``CloudState``) exactly the way the real event would: overwrite fields
of a resource (a concurrent team swapping the launch configuration's
AMI, an ELB service disruption) or remove a resource (a key pair deleted
by an operator).
"""

from __future__ import annotations

import dataclasses

from repro.cloud.state import CloudState


@dataclasses.dataclass
class InjectionRecord:
    """One injection: when, on which resource, and what it overwrote."""

    time: float
    kind: str
    target: str
    #: The overwritten fields' values before the injection; None for a
    #: removal, which cannot be reverted.
    original: dict | None
    reverted_at: float | None = None


class FaultInjector:
    """Mutates cloud state the way the paper's injected faults do."""

    def __init__(self, engine, state: CloudState, trail=None) -> None:
        self.engine = engine
        self.state = state
        #: Chaos actions are themselves API calls from *someone*; with a
        #: CloudTrail attached, random terminations leave delayed audit
        #: records — which is what lets offline analysis attribute them.
        self.trail = trail

    def change(self, kind: str, identifier: str, **fields) -> InjectionRecord:
        """Overwrite ``fields`` of a resource, recording their originals."""
        current = self.state.get(kind, identifier)
        original = {name: getattr(current, name) for name in fields}
        self.state.write(kind, identifier, self.engine.now, **fields)
        return InjectionRecord(self.engine.now, kind, identifier, original)

    def remove(self, kind: str, identifier: str) -> InjectionRecord:
        """Take a resource away (a no-op if it is already gone)."""
        if self.state.exists(kind, identifier):
            self.state.delete(kind, identifier, self.engine.now)
        return InjectionRecord(self.engine.now, kind, identifier, None)

    def revert(self, record: InjectionRecord) -> None:
        """Undo a change — models the transient-fault class where the
        root cause has vanished by the time diagnosis tests run."""
        if record.original is None:
            raise ValueError(f"the removal of {record.kind} {record.target!r} cannot be reverted")
        if self.state.exists(record.kind, record.target):
            self.state.write(record.kind, record.target, self.engine.now, **record.original)
        record.reverted_at = self.engine.now

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
        return victim.instance_id
