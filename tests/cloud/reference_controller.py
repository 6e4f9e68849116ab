"""The pre-single-pass control plane, kept as the differential oracle.

``ReferenceAsgController`` is the ASG controller as it was before the
hot-path rewrite: ``exists`` + ``get`` + ``is_active`` per member, twice
per tick (``_prune_dead_members`` then the active scan), the
double-lookup ``_validate_launch`` / ``_boot`` / ``_register_with_elbs``
and its own ELB-scanning ``_finish_termination``.  ``ReferenceCloudState``
snapshots every write with the recursive reference ``freeze`` and no
reuse of the previous history entry.  tests/cloud/test_controller_differential.py
drives both stacks through the same scripts and requires identical
observable behaviour.
"""

import typing as _t

from repro.cloud.controller import ELB_REGISTER_DELAY, AsgController, ScalingActivity
from repro.cloud.errors import CloudError, LimitExceeded, ResourceNotFound, ServiceUnavailable
from repro.cloud.resources import Instance, InstanceState
from repro.cloud.state import CloudState

from .reference_freeze import reference_freeze


class ReferenceCloudState(CloudState):
    def record_write(self, kind: str, identifier: str, now: float) -> None:
        resource = self._registry(kind).get(identifier)
        snapshot = (
            reference_freeze(resource.describe(), self._intern, self._count)
            if resource is not None
            else None
        )
        self._append_history(kind, identifier, now, snapshot)

    def active_instance_count(self) -> int:
        """Instances counting against the account limit."""
        return sum(1 for i in self.instances.values() if i.state.is_active())


class ReferenceAsgController(AsgController):
    def _reconcile_asg(self, asg_name: str) -> None:
        asg = self.state.auto_scaling_groups.get(asg_name)
        if asg is None:
            return
        self._prune_dead_members(asg_name)
        asg = self.state.auto_scaling_groups.get(asg_name)
        active = [
            iid
            for iid in asg.instance_ids
            if self.state.exists("instance", iid)
            and self.state.get("instance", iid).state.is_active()
        ]
        gap = asg.desired_capacity - len(active)
        if gap > 0 and self.LAUNCH not in asg.suspended_processes:
            for _ in range(gap):
                self._try_launch(asg_name)
        elif gap < 0 and self.TERMINATE not in asg.suspended_processes:
            # Scale in: terminate the oldest instances first (AWS default-ish).
            by_age = sorted(active, key=lambda iid: self.state.get("instance", iid).launch_time)
            for iid in by_age[: abs(gap)]:
                self._terminate_member(asg_name, iid)

    def _prune_dead_members(self, asg_name: str) -> None:
        asg = self.state.auto_scaling_groups[asg_name]
        alive = []
        # Iterate a snapshot: replacing an unhealthy member mutates
        # asg.instance_ids mid-loop.
        for iid in list(asg.instance_ids):
            if not self.state.exists("instance", iid):
                continue
            instance = self.state.get("instance", iid)
            if instance.state in (InstanceState.TERMINATED, InstanceState.SHUTTING_DOWN):
                continue
            if instance.state == InstanceState.RUNNING and not instance.healthy:
                # The ASG replaces unhealthy instances (§V.B of the paper).
                self._terminate_member(asg_name, iid, cause="unhealthy")
                continue
            alive.append(iid)
        if alive != asg.instance_ids:
            asg.instance_ids = alive
            self.state.record_write("auto_scaling_group", asg_name, self.engine.now)

    def _try_launch(self, asg_name: str) -> None:
        asg = self.state.auto_scaling_groups[asg_name]
        try:
            self._validate_launch(asg)
        except CloudError as exc:
            self._record(
                ScalingActivity(
                    time=self.engine.now,
                    asg_name=asg_name,
                    activity=self.LAUNCH,
                    status="Failed",
                    description=f"Launching a new EC2 instance failed: {exc}",
                    error_code=exc.code,
                )
            )
            return
        lc = self.state.get("launch_configuration", asg.launch_configuration_name)
        instance_id = self.state.new_id("instance")
        instance = Instance(
            instance_id=instance_id,
            image_id=lc.image_id,
            instance_type=lc.instance_type,
            key_name=lc.key_name,
            security_groups=list(lc.security_groups),
            state=InstanceState.PENDING,
            launch_time=self.engine.now,
            asg_name=asg_name,
        )
        self.state.put("instance", instance_id, instance, self.engine.now)
        asg.instance_ids.append(instance_id)
        self.state.record_write("auto_scaling_group", asg_name, self.engine.now)
        self._record(
            ScalingActivity(
                time=self.engine.now,
                asg_name=asg_name,
                activity=self.LAUNCH,
                status="InProgress",
                description=f"Launching a new EC2 instance: {instance_id}",
                instance_id=instance_id,
            )
        )
        self.engine.process(self._boot(asg_name, instance_id), name=f"boot-{instance_id}")

    def _validate_launch(self, asg) -> None:
        """Raise the CloudError a real launch attempt would surface."""
        if not self.state.exists("launch_configuration", asg.launch_configuration_name):
            raise ResourceNotFound.of("launch_configuration", asg.launch_configuration_name)
        lc = self.state.get("launch_configuration", asg.launch_configuration_name)
        if not self.state.exists("ami", lc.image_id):
            raise ResourceNotFound.of("ami", lc.image_id)
        if not self.state.get("ami", lc.image_id).available:
            raise ResourceNotFound.of("ami", lc.image_id)
        if not self.state.exists("key_pair", lc.key_name):
            raise ResourceNotFound.of("key_pair", lc.key_name)
        for group in lc.security_groups:
            if not self.state.exists("security_group", group):
                raise ResourceNotFound.of("security_group", group)
        if self.state.active_instance_count() >= self.state.limits.max_instances:
            raise LimitExceeded(
                f"account limit of {self.state.limits.max_instances} instances reached"
            )

    def _boot(self, asg_name: str, instance_id: str) -> _t.Generator:
        yield self.engine.timeout(self.boot_latency.sample())
        if not self.state.exists("instance", instance_id):
            return
        instance = self.state.get("instance", instance_id)
        if instance.state != InstanceState.PENDING:
            return
        instance.state = InstanceState.RUNNING
        self.state.record_write("instance", instance_id, self.engine.now)
        self._record(
            ScalingActivity(
                time=self.engine.now,
                asg_name=asg_name,
                activity=self.LAUNCH,
                status="Successful",
                description=f"Launched EC2 instance: {instance_id}",
                instance_id=instance_id,
            )
        )
        yield self.engine.timeout(ELB_REGISTER_DELAY)
        self._register_with_elbs(asg_name, instance_id)

    def _register_with_elbs(self, asg_name: str, instance_id: str) -> None:
        asg = self.state.auto_scaling_groups.get(asg_name)
        if asg is None or not self.state.exists("instance", instance_id):
            return
        for elb_name in asg.load_balancer_names:
            if not self.state.exists("load_balancer", elb_name):
                self._record(
                    ScalingActivity(
                        time=self.engine.now,
                        asg_name=asg_name,
                        activity=self.LAUNCH,
                        status="Failed",
                        description=(
                            f"Registering {instance_id} with load balancer {elb_name} failed:"
                            " load balancer not found"
                        ),
                        error_code=ServiceUnavailable.code,
                        instance_id=instance_id,
                    )
                )
                continue
            elb = self.state.get("load_balancer", elb_name)
            if not elb.available:
                self._record(
                    ScalingActivity(
                        time=self.engine.now,
                        asg_name=asg_name,
                        activity=self.LAUNCH,
                        status="Failed",
                        description=(
                            f"Registering {instance_id} with load balancer {elb_name} failed:"
                            " load balancer unavailable"
                        ),
                        error_code=ServiceUnavailable.code,
                        instance_id=instance_id,
                    )
                )
                continue
            if instance_id not in elb.registered_instances:
                elb.registered_instances.append(instance_id)
                self.state.record_write("load_balancer", elb_name, self.engine.now)

    def _finish_termination(self, instance_id: str) -> _t.Generator:
        yield self.engine.timeout(4.0)
        if not self.state.exists("instance", instance_id):
            return
        instance = self.state.get("instance", instance_id)
        instance.state = InstanceState.TERMINATED
        self.state.record_write("instance", instance_id, self.engine.now)
        for elb in self.state.load_balancers.values():
            if instance_id in elb.registered_instances:
                elb.registered_instances.remove(instance_id)
                self.state.record_write("load_balancer", elb.name, self.engine.now)
