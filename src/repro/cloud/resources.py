"""Resource model for the simulated cloud.

Only the attributes POD-Diagnosis observes are modelled — the assertion
library checks AMI ids, security groups, key pairs, instance types,
ELB registration and instance counts, so those are first-class; everything
else AWS carries is irrelevant to the reproduction and omitted.

Each resource object is one immutable *version*: a frozen, slotted
dataclass whose sequences are tuples.
Assigning a field raises; :meth:`~repro.cloud.state.CloudState.write`
builds the next version and records it, so the region's write history
is complete by construction.  ``describe()`` builds the version's frozen
AWS-shaped view directly from those already-immutable fields.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.cloud.freeze import FrozenList, FrozenView


class InstanceState(str, enum.Enum):
    """EC2 instance lifecycle states the simulator distinguishes."""

    PENDING = "pending"
    RUNNING = "running"
    SHUTTING_DOWN = "shutting-down"
    TERMINATED = "terminated"

    def is_active(self) -> bool:
        """Pending or running — counts against the account instance limit."""
        return self in ACTIVE_STATES


#: The states that count against the account instance limit.
ACTIVE_STATES = (InstanceState.PENDING, InstanceState.RUNNING)


@dataclasses.dataclass(frozen=True, slots=True)
class AmiImage:
    """A machine image; the unit of 'version' in a rolling upgrade."""

    image_id: str
    name: str
    version: str

    def describe(self) -> FrozenView:
        return FrozenView({
            "ImageId": self.image_id,
            "Name": self.name,
            "Version": self.version,
            # A deregistered image is deleted, so every described one is available.
            "State": "available",
        })


@dataclasses.dataclass(frozen=True, slots=True)
class SecurityGroup:
    """A named firewall ruleset; assertions verify the ASG references the
    right one (fault type 3) and that it still exists (fault type 7)."""

    group_id: str
    group_name: str
    description: str = ""
    ingress_rules: tuple[_t.Mapping, ...] = ()

    def describe(self) -> FrozenView:
        return FrozenView({
            "GroupId": self.group_id,
            "GroupName": self.group_name,
            "Description": self.description,
            "IpPermissions": FrozenList(map(FrozenView, self.ingress_rules)),
        })


@dataclasses.dataclass(frozen=True, slots=True)
class KeyPair:
    """An SSH key pair (fault types 2 and 6)."""

    key_name: str
    fingerprint: str

    def describe(self) -> FrozenView:
        return FrozenView({"KeyName": self.key_name, "KeyFingerprint": self.fingerprint})


@dataclasses.dataclass(frozen=True, slots=True)
class LaunchConfiguration:
    """Template from which the ASG launches instances.

    The rolling upgrade's first real step is *Update launch configuration*:
    create LC' pointing at the new AMI and attach it to the ASG.  Most of
    the paper's configuration faults are LC corruptions.
    """

    name: str
    image_id: str
    instance_type: str
    key_name: str
    security_groups: tuple[str, ...]
    created_at: float = 0.0

    def describe(self) -> FrozenView:
        return FrozenView({
            "LaunchConfigurationName": self.name,
            "ImageId": self.image_id,
            "InstanceType": self.instance_type,
            "KeyName": self.key_name,
            "SecurityGroups": FrozenList(self.security_groups),
            "CreatedTime": self.created_at,
        })


@dataclasses.dataclass(frozen=True, slots=True)
class Instance:
    """A virtual machine instance."""

    instance_id: str
    image_id: str
    instance_type: str
    key_name: str
    security_groups: tuple[str, ...]
    state: InstanceState = InstanceState.PENDING
    launch_time: float = 0.0
    terminate_time: float | None = None
    asg_name: str | None = None
    #: Health as the ELB sees it once registered.
    healthy: bool = True

    def describe(self) -> FrozenView:
        return FrozenView({
            "InstanceId": self.instance_id,
            "ImageId": self.image_id,
            "InstanceType": self.instance_type,
            "KeyName": self.key_name,
            "SecurityGroups": FrozenList(self.security_groups),
            "State": FrozenView({"Name": self.state.value}),
            "LaunchTime": self.launch_time,
            "AutoScalingGroupName": self.asg_name,
        })


@dataclasses.dataclass(frozen=True, slots=True)
class LoadBalancer:
    """An ELB: the cluster's point of contact for incoming traffic."""

    name: str
    registered_instances: tuple[str, ...] = ()
    available: bool = True

    def describe(self) -> FrozenView:
        return FrozenView({
            "LoadBalancerName": self.name,
            "Instances": FrozenList(
                [FrozenView({"InstanceId": i}) for i in self.registered_instances]
            ),
            "State": "active" if self.available else "unavailable",
        })


@dataclasses.dataclass(frozen=True, slots=True)
class AutoScalingGroup:
    """The ASG that owns the application's instance fleet.

    Asgard performs rolling upgrade by updating the ASG's launch
    configuration, then terminating old instances and letting the ASG's
    control loop launch replacements from the new LC.
    """

    name: str
    launch_configuration_name: str
    min_size: int
    max_size: int
    desired_capacity: int
    instance_ids: tuple[str, ...] = ()
    load_balancer_names: tuple[str, ...] = ()

    def describe(self) -> FrozenView:
        return FrozenView({
            "AutoScalingGroupName": self.name,
            "LaunchConfigurationName": self.launch_configuration_name,
            "MinSize": self.min_size,
            "MaxSize": self.max_size,
            "DesiredCapacity": self.desired_capacity,
            "Instances": FrozenList([FrozenView({"InstanceId": i}) for i in self.instance_ids]),
            "LoadBalancerNames": FrozenList(self.load_balancer_names),
        })


#: Union of every resource dataclass, for typed registries.
Resource = _t.Union[
    AmiImage,
    SecurityGroup,
    KeyPair,
    LaunchConfiguration,
    Instance,
    LoadBalancer,
    AutoScalingGroup,
]
