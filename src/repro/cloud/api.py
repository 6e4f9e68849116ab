"""The simulated cloud API.

One :class:`CloudAPI` per *principal* (Asgard, the diagnosis service, the
interfering second team, ...), all sharing one :class:`CloudState`.  Every
call is rate-limited against the shared account window, audited to
CloudTrail, and — for describe-calls — served through the eventually
consistent view unless the caller explicitly asks for a consistent read.

The API is synchronous with respect to the simulation: latency is applied
by :class:`TimedCloudClient`, which simulation processes use to both pay
the virtual time cost and get the result.
"""

from __future__ import annotations

import hashlib
import typing as _t
from itertools import repeat

from repro.cloud.cloudtrail import CloudTrail, TrailRecord
from repro.cloud.consistency import ConsistencyModel, EventuallyConsistentView
from repro.cloud.controller import activities_since
from repro.cloud.errors import (
    MalformedRequest,
    ResourceNotFound,
    ServiceUnavailable,
    Throttling,
)
from repro.cloud.resources import (
    AmiImage,
    AutoScalingGroup,
    InstanceState,
    KeyPair,
    LaunchConfiguration,
    LoadBalancer,
    SecurityGroup,
)
from repro.cloud.state import CloudState
from repro.sim.latency import LatencyModel, aws_api_latency


class CloudAPI:
    """Per-principal facade over the shared region state."""

    def __init__(
        self,
        engine,
        state: CloudState,
        trail: CloudTrail,
        principal: str = "default",
        consistency: ConsistencyModel | None = None,
    ) -> None:
        self.engine = engine
        self.state = state
        self.trail = trail
        self.principal = principal
        self.view = EventuallyConsistentView(state, engine.clock, consistency)
        #: This principal's audit records, in call order: immediate, where
        #: the trail's lookup waits out the delivery delay.
        self.calls: list[TrailRecord] = []

    # -- plumbing ----------------------------------------------------------

    def _enter(self, name: str, params: dict) -> None:
        if not self.state.rate_limiter.try_acquire(self.engine.now):
            self._audit(name, params, error_code="Throttling")
            raise Throttling(f"rate limit exceeded for {name}")

    def _audit(self, name: str, params: dict, error_code: str | None = None) -> None:
        self.calls.append(self.trail.record(name, self.principal, params, error_code))

    def _call(self, name: str, params: dict, body: _t.Callable[[], _t.Any]) -> _t.Any:
        """Run one API call: rate limit, execute, audit outcome."""
        self._enter(name, params)
        try:
            result = body()
        except Exception as exc:
            code = getattr(exc, "code", "InternalError")
            self._audit(name, params, error_code=code)
            raise
        self._audit(name, params)
        return result

    def _read(self, kind: str, identifier: str, consistent: bool) -> dict:
        """Describe one resource, honouring eventual consistency.

        Returns the shared frozen view — read-only; callers needing a
        mutable dict use ``view.thaw()``.
        """
        if consistent:
            view = self.view.read_consistent(kind, identifier)
        else:
            view = self.view.read(kind, identifier)
        if view is None:
            raise ResourceNotFound.of(kind, identifier)
        return view

    # -- EC2: images -------------------------------------------------------

    def register_image(self, name: str, version: str, image_id: str | None = None) -> dict:
        def body() -> dict:
            iid = image_id or self.state.new_id("ami")
            image = AmiImage(image_id=iid, name=name, version=version)
            return self.state.put("ami", iid, image, self.engine.now)

        return self._call("RegisterImage", {"Name": name, "Version": version}, body)

    def describe_image(self, image_id: str, consistent: bool = False) -> dict:
        return self._call(
            "DescribeImages",
            {"ImageId": image_id},
            lambda: self._read("ami", image_id, consistent),
        )

    def deregister_image(self, image_id: str) -> None:
        self._call(
            "DeregisterImage",
            {"ImageId": image_id},
            lambda: self.state.delete("ami", image_id, self.engine.now),
        )

    # -- EC2: security groups / key pairs -----------------------------------

    def create_security_group(self, group_name: str, description: str = "") -> dict:
        def body() -> dict:
            gid = self.state.new_id("security_group")
            group = SecurityGroup(group_id=gid, group_name=group_name, description=description)
            return self.state.put("security_group", group_name, group, self.engine.now)

        return self._call("CreateSecurityGroup", {"GroupName": group_name}, body)

    def describe_security_group(self, group_name: str, consistent: bool = False) -> dict:
        return self._call(
            "DescribeSecurityGroups",
            {"GroupName": group_name},
            lambda: self._read("security_group", group_name, consistent),
        )

    def delete_security_group(self, group_name: str) -> None:
        def body() -> None:
            self.state.get("security_group", group_name)
            self.state.delete("security_group", group_name, self.engine.now)

        self._call("DeleteSecurityGroup", {"GroupName": group_name}, body)

    def create_key_pair(self, key_name: str) -> dict:
        def body() -> dict:
            # A digest, not hash(): str hashes are salted per interpreter
            # (PYTHONHASHSEED) and this value reaches diagnosis evidence.
            fingerprint = "fp:" + hashlib.sha256(key_name.encode()).hexdigest()[:12]
            key = KeyPair(key_name=key_name, fingerprint=fingerprint)
            return self.state.put("key_pair", key_name, key, self.engine.now)

        return self._call("CreateKeyPair", {"KeyName": key_name}, body)

    def describe_key_pair(self, key_name: str, consistent: bool = False) -> dict:
        return self._call(
            "DescribeKeyPairs",
            {"KeyName": key_name},
            lambda: self._read("key_pair", key_name, consistent),
        )

    def delete_key_pair(self, key_name: str) -> None:
        def body() -> None:
            self.state.get("key_pair", key_name)
            self.state.delete("key_pair", key_name, self.engine.now)

        self._call("DeleteKeyPair", {"KeyName": key_name}, body)

    # -- EC2: instances ------------------------------------------------------

    def describe_instance(self, instance_id: str, consistent: bool = False) -> dict:
        return self._call(
            "DescribeInstances",
            {"InstanceId": instance_id},
            lambda: self._read("instance", instance_id, consistent),
        )

    def describe_instances_in_asg(self, asg_name: str) -> list[dict]:
        """All non-terminated instances attached to an ASG.

        Served consistently: each member's latest recorded view, the one
        ``describe_instance(id, consistent=True)`` serves.
        """

        def body() -> list[dict]:
            asg = self.state.get("auto_scaling_group", asg_name)
            views = map(self.state.latest_view, repeat("instance"), asg.instance_ids)
            return [view for view in views if view is not None]

        return self._call("DescribeInstances", {"AutoScalingGroupName": asg_name}, body)

    def terminate_instance(self, instance_id: str) -> dict:
        """Begin terminating an instance (async shutdown)."""
        return self._call(
            "TerminateInstances",
            {"InstanceId": instance_id},
            lambda: self._begin_termination(instance_id),
        )

    def _begin_termination(self, instance_id: str) -> dict:
        if self.state.get("instance", instance_id).state == InstanceState.TERMINATED:
            return self.state.latest_view("instance", instance_id)
        now = self.engine.now
        view = self.state.write(
            "instance", instance_id, now, state=InstanceState.SHUTTING_DOWN, terminate_time=now
        )
        self.engine.process(self._finish_termination(instance_id), name=f"terminate-{instance_id}")
        return view

    def _finish_termination(self, instance_id: str) -> _t.Generator:
        yield self.engine.timeout(4.0)
        self.state.finish_termination(instance_id, self.engine.now)

    # -- AutoScaling: launch configurations ----------------------------------

    def create_launch_configuration(
        self,
        name: str,
        image_id: str,
        instance_type: str,
        key_name: str,
        security_groups: list[str],
    ) -> dict:
        def body() -> dict:
            if self.state.exists("launch_configuration", name):
                raise MalformedRequest(f"launch configuration {name!r} already exists")
            lc = LaunchConfiguration(
                name=name,
                image_id=image_id,
                instance_type=instance_type,
                key_name=key_name,
                security_groups=tuple(security_groups),
                created_at=self.engine.now,
            )
            return self.state.put("launch_configuration", name, lc, self.engine.now)

        return self._call(
            "CreateLaunchConfiguration",
            {"LaunchConfigurationName": name, "ImageId": image_id},
            body,
        )

    def describe_launch_configuration(self, name: str, consistent: bool = False) -> dict:
        return self._call(
            "DescribeLaunchConfigurations",
            {"LaunchConfigurationName": name},
            lambda: self._read("launch_configuration", name, consistent),
        )

    def update_launch_configuration(self, name: str, **changes) -> dict:
        """Non-standard but convenient mutation hook (used by fault
        injection to model 'another team changed the LC')."""

        def body() -> dict:
            return self.state.write("launch_configuration", name, self.engine.now, **changes)

        return self._call(
            "UpdateLaunchConfiguration", {"LaunchConfigurationName": name, **changes}, body
        )

    def delete_launch_configuration(self, name: str) -> None:
        def body() -> None:
            self.state.get("launch_configuration", name)
            self.state.delete("launch_configuration", name, self.engine.now)

        self._call("DeleteLaunchConfiguration", {"LaunchConfigurationName": name}, body)

    # -- AutoScaling: groups ---------------------------------------------------

    def create_auto_scaling_group(
        self,
        name: str,
        launch_configuration_name: str,
        min_size: int,
        max_size: int,
        desired_capacity: int,
        load_balancer_names: list[str] | None = None,
    ) -> dict:
        def body() -> dict:
            if self.state.exists("auto_scaling_group", name):
                raise MalformedRequest(f"auto scaling group {name!r} already exists")
            if not 0 <= min_size <= desired_capacity <= max_size:
                raise MalformedRequest(
                    f"sizes must satisfy min<=desired<=max, got {min_size}/{desired_capacity}/{max_size}"
                )
            self.state.get("launch_configuration", launch_configuration_name)
            asg = AutoScalingGroup(
                name=name,
                launch_configuration_name=launch_configuration_name,
                min_size=min_size,
                max_size=max_size,
                desired_capacity=desired_capacity,
                load_balancer_names=tuple(load_balancer_names or ()),
            )
            return self.state.put("auto_scaling_group", name, asg, self.engine.now)

        return self._call("CreateAutoScalingGroup", {"AutoScalingGroupName": name}, body)

    def describe_auto_scaling_group(self, name: str, consistent: bool = False) -> dict:
        return self._call(
            "DescribeAutoScalingGroups",
            {"AutoScalingGroupName": name},
            lambda: self._read("auto_scaling_group", name, consistent),
        )

    def update_auto_scaling_group(self, name: str, **changes) -> dict:
        def body() -> dict:
            # Check the whole next version before writing it: a rejected
            # update changes nothing.
            asg = self.state.get("auto_scaling_group", name)
            if "launch_configuration_name" in changes:
                self.state.get("launch_configuration", changes["launch_configuration_name"])
            low, desired, high = (
                changes.get(field, getattr(asg, field))
                for field in ("min_size", "desired_capacity", "max_size")
            )
            if not 0 <= low <= desired <= high:
                raise MalformedRequest("sizes must satisfy min<=desired<=max")
            return self.state.write("auto_scaling_group", name, self.engine.now, **changes)

        return self._call("UpdateAutoScalingGroup", {"AutoScalingGroupName": name, **changes}, body)

    def set_desired_capacity(self, name: str, desired_capacity: int) -> dict:
        return self.update_auto_scaling_group(name, desired_capacity=desired_capacity)

    def suspend_processes(self, name: str, processes: list[str]) -> None:
        def body() -> None:
            asg = self.state.get("auto_scaling_group", name)
            suspended = asg.suspended_processes.union(processes)
            self.state.write(
                "auto_scaling_group", name, self.engine.now, suspended_processes=suspended
            )

        self._call("SuspendProcesses", {"AutoScalingGroupName": name, "Processes": processes}, body)

    def resume_processes(self, name: str, processes: list[str]) -> None:
        def body() -> None:
            asg = self.state.get("auto_scaling_group", name)
            suspended = asg.suspended_processes.difference(processes)
            self.state.write(
                "auto_scaling_group", name, self.engine.now, suspended_processes=suspended
            )

        self._call("ResumeProcesses", {"AutoScalingGroupName": name, "Processes": processes}, body)

    def terminate_instance_in_auto_scaling_group(
        self, instance_id: str, decrement_desired_capacity: bool = False
    ) -> dict:
        """Asgard's per-instance replacement primitive."""

        def body() -> dict:
            instance = self.state.get("instance", instance_id)
            asg_name = instance.asg_name
            if asg_name and self.state.exists("auto_scaling_group", asg_name):
                asg = self.state.get("auto_scaling_group", asg_name)
                changes = {}
                if instance_id in asg.instance_ids:
                    members = asg.instance_ids
                    changes["instance_ids"] = tuple(i for i in members if i != instance_id)
                if decrement_desired_capacity:
                    changes["desired_capacity"] = max(asg.min_size, asg.desired_capacity - 1)
                self.state.write("auto_scaling_group", asg_name, self.engine.now, **changes)
            return self._begin_termination(instance_id)

        return self._call(
            "TerminateInstanceInAutoScalingGroup", {"InstanceId": instance_id}, body
        )

    # -- ELB ---------------------------------------------------------------

    def create_load_balancer(self, name: str) -> dict:
        def body() -> dict:
            if self.state.exists("load_balancer", name):
                raise MalformedRequest(f"load balancer {name!r} already exists")
            elb = LoadBalancer(name=name)
            return self.state.put("load_balancer", name, elb, self.engine.now)

        return self._call("CreateLoadBalancer", {"LoadBalancerName": name}, body)

    def describe_load_balancer(self, name: str, consistent: bool = False) -> dict:
        return self._call(
            "DescribeLoadBalancers",
            {"LoadBalancerName": name},
            lambda: self._read("load_balancer", name, consistent),
        )

    def delete_load_balancer(self, name: str) -> None:
        def body() -> None:
            self.state.get("load_balancer", name)
            self.state.delete("load_balancer", name, self.engine.now)

        self._call("DeleteLoadBalancer", {"LoadBalancerName": name}, body)

    def register_instances_with_load_balancer(self, name: str, instance_ids: list[str]) -> dict:
        def body() -> dict:
            elb = self.state.get("load_balancer", name)
            if not elb.available:
                raise ServiceUnavailable(f"load balancer {name!r} is unavailable")
            registered = elb.registered_instances
            for iid in instance_ids:
                self.state.get("instance", iid)
                if iid not in registered:
                    registered += (iid,)
            return self.state.write(
                "load_balancer", name, self.engine.now, registered_instances=registered
            )

        return self._call(
            "RegisterInstancesWithLoadBalancer",
            {"LoadBalancerName": name, "Instances": list(instance_ids)},
            body,
        )

    def deregister_instances_from_load_balancer(self, name: str, instance_ids: list[str]) -> dict:
        def body() -> dict:
            elb = self.state.get("load_balancer", name)
            if not elb.available:
                raise ServiceUnavailable(f"load balancer {name!r} is unavailable")
            remaining = tuple(i for i in elb.registered_instances if i not in instance_ids)
            return self.state.write(
                "load_balancer", name, self.engine.now, registered_instances=remaining
            )

        return self._call(
            "DeregisterInstancesFromLoadBalancer",
            {"LoadBalancerName": name, "Instances": list(instance_ids)},
            body,
        )

    def describe_scaling_activities(self, asg_name: str, since: float = 0.0) -> list:
        """Scaling activities for one ASG since a given time.

        Diagnosis tests consult this to see whether the ASG's launch
        attempts are failing (and with which error code).
        """

        return self._call(
            "DescribeScalingActivities",
            {"AutoScalingGroupName": asg_name},
            lambda: activities_since(self.state.scaling_activities, asg_name, since),
        )

    def describe_instance_health(self, name: str) -> list[dict]:
        def body() -> list[dict]:
            elb = self.state.get("load_balancer", name)
            if not elb.available:
                raise ServiceUnavailable(f"load balancer {name!r} is unavailable")
            instances = self.state.instances
            result = []
            for iid in elb.registered_instances:
                instance = instances.get(iid)
                healthy = (
                    instance is not None
                    and instance.state == InstanceState.RUNNING
                    and instance.healthy
                )
                result.append(
                    {"InstanceId": iid, "State": "InService" if healthy else "OutOfService"}
                )
            return result

        return self._call("DescribeInstanceHealth", {"LoadBalancerName": name}, body)


class TimedCloudClient:
    """Applies virtual latency around :class:`CloudAPI` calls.

    Simulation processes use ``result = yield from
    client.call("describe_image", image_id)``: the latency is paid *before*
    the call executes, modelling request transit + service time.
    """

    def __init__(self, engine, api: CloudAPI, latency: LatencyModel | None = None) -> None:
        self.engine = engine
        self.api = api
        self.latency = latency or aws_api_latency()

    def call(self, method: str, *args, **kwargs) -> _t.Generator:
        """Generator: ``yield from`` it in a process, returns the API result."""
        yield self.engine.timeout(self.latency.sample())
        return getattr(self.api, method)(*args, **kwargs)
