"""Resource model for the simulated cloud.

Only the attributes POD-Diagnosis observes are modelled — the assertion
library checks AMI ids, security groups, key pairs, instance types,
ELB registration and instance counts, so those are first-class; everything
else AWS carries is irrelevant to the reproduction and omitted.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t


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


@dataclasses.dataclass(slots=True)
class AmiImage:
    """A machine image; the unit of 'version' in a rolling upgrade."""

    image_id: str
    name: str
    version: str

    def describe(self) -> dict:
        return {
            "ImageId": self.image_id,
            "Name": self.name,
            "Version": self.version,
            # A deregistered image is deleted, so every described one is available.
            "State": "available",
        }


@dataclasses.dataclass(slots=True)
class SecurityGroup:
    """A named firewall ruleset; assertions verify the ASG references the
    right one (fault type 3) and that it still exists (fault type 7)."""

    group_id: str
    group_name: str
    description: str = ""
    ingress_rules: list[dict] = dataclasses.field(default_factory=list)

    def describe(self) -> dict:
        return {
            "GroupId": self.group_id,
            "GroupName": self.group_name,
            "Description": self.description,
            "IpPermissions": [dict(rule) for rule in self.ingress_rules],
        }


@dataclasses.dataclass(slots=True)
class KeyPair:
    """An SSH key pair (fault types 2 and 6)."""

    key_name: str
    fingerprint: str

    def describe(self) -> dict:
        return {"KeyName": self.key_name, "KeyFingerprint": self.fingerprint}


@dataclasses.dataclass(slots=True)
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
    security_groups: list[str]
    created_at: float = 0.0

    def describe(self) -> dict:
        return {
            "LaunchConfigurationName": self.name,
            "ImageId": self.image_id,
            "InstanceType": self.instance_type,
            "KeyName": self.key_name,
            "SecurityGroups": list(self.security_groups),
            "CreatedTime": self.created_at,
        }


@dataclasses.dataclass(slots=True)
class Instance:
    """A virtual machine instance."""

    instance_id: str
    image_id: str
    instance_type: str
    key_name: str
    security_groups: list[str]
    state: InstanceState = InstanceState.PENDING
    launch_time: float = 0.0
    terminate_time: float | None = None
    asg_name: str | None = None
    #: Health as the ELB sees it once registered.
    healthy: bool = True

    def describe(self) -> dict:
        return {
            "InstanceId": self.instance_id,
            "ImageId": self.image_id,
            "InstanceType": self.instance_type,
            "KeyName": self.key_name,
            "SecurityGroups": list(self.security_groups),
            "State": {"Name": self.state.value},
            "LaunchTime": self.launch_time,
            "AutoScalingGroupName": self.asg_name,
        }


@dataclasses.dataclass(slots=True)
class LoadBalancer:
    """An ELB: the cluster's point of contact for incoming traffic."""

    name: str
    registered_instances: list[str] = dataclasses.field(default_factory=list)
    available: bool = True

    def describe(self) -> dict:
        return {
            "LoadBalancerName": self.name,
            "Instances": [{"InstanceId": i} for i in self.registered_instances],
            "State": "active" if self.available else "unavailable",
        }


@dataclasses.dataclass(slots=True)
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
    instance_ids: list[str] = dataclasses.field(default_factory=list)
    load_balancer_names: list[str] = dataclasses.field(default_factory=list)
    #: Suspended scaling processes (Asgard suspends some during upgrades).
    suspended_processes: set[str] = dataclasses.field(default_factory=set)

    def describe(self) -> dict:
        return {
            "AutoScalingGroupName": self.name,
            "LaunchConfigurationName": self.launch_configuration_name,
            "MinSize": self.min_size,
            "MaxSize": self.max_size,
            "DesiredCapacity": self.desired_capacity,
            "Instances": [{"InstanceId": i} for i in self.instance_ids],
            "LoadBalancerNames": list(self.load_balancer_names),
            "SuspendedProcesses": sorted(self.suspended_processes),
        }


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
