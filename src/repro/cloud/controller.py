"""The ASG control loop.

AWS auto-scaling is a convergence engine: it continuously compares an
ASG's desired capacity with its live fleet and launches or terminates
instances to close the gap.  Asgard's rolling upgrade *relies* on this —
it terminates an old instance and waits for the ASG to start a new one
(Fig. 2, "Wait for ASG to start new instance").  The paper's resource
faults (AMI/key/SG/ELB unavailable) manifest precisely here: the launch
attempt fails inside the black-box control loop, producing a *scaling
activity* failure and, from Asgard's point of view, a silent stall.
"""

from __future__ import annotations

import dataclasses
import operator
import typing as _t
from bisect import bisect_left

from repro.cloud.errors import CloudError, LimitExceeded, ResourceNotFound, ServiceUnavailable
from repro.cloud.resources import Instance, InstanceState, LaunchConfiguration
from repro.cloud.state import CloudState
from repro.sim.latency import LatencyModel, instance_boot_latency


_activity_time = operator.attrgetter("time")
_PENDING = InstanceState.PENDING
_RUNNING = InstanceState.RUNNING


@dataclasses.dataclass
class ScalingActivity:
    """One launch/terminate attempt, mirroring DescribeScalingActivities."""

    time: float
    asg_name: str
    activity: str  # "Launch" | "Terminate"
    status: str  # "Successful" | "Failed" | "InProgress"
    description: str
    error_code: str | None = None
    instance_id: str | None = None


def activities_since(
    log: list[ScalingActivity], asg_name: str, since: float = 0.0
) -> list[ScalingActivity]:
    """One ASG's activities from ``since`` on; ``log`` is appended in time
    order, so a long tail of per-tick failed launches is skipped, not scanned."""
    start = bisect_left(log, since, key=_activity_time)
    return [a for a in log[start:] if a.asg_name == asg_name]


#: Seconds between an instance reaching ``running`` and the control loop
#: registering it with the group's load balancers.
ELB_REGISTER_DELAY = 3.0

#: Seconds between reconcile passes: how soon a terminated member is
#: replaced and a failed launch is retried.
RECONCILE_INTERVAL = 5.0


class AsgController:
    """Background reconciliation process for every ASG in the region."""

    #: ASG scaling process names (matching AWS) that can be suspended.
    LAUNCH = "Launch"
    TERMINATE = "Terminate"

    def __init__(
        self,
        engine,
        state: CloudState,
        boot_latency: LatencyModel | None = None,
    ) -> None:
        self.engine = engine
        self.state = state
        self.boot_latency = boot_latency or instance_boot_latency()
        self._running = False
        self._tick = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.engine.process(self._loop(), name="asg-controller")

    def stop(self) -> None:
        self._running = False

    # -- internals ----------------------------------------------------------

    def _loop(self) -> _t.Generator:
        while self._running:
            self.reconcile()
            yield self.engine.timeout(RECONCILE_INTERVAL)

    def reconcile(self) -> None:
        """One pass: converge every ASG towards its desired capacity.

        The visit order rotates between passes: AWS gives no ASG priority
        over shared account capacity, so when the account is at its
        instance limit, a freed slot is won by whichever group's
        reconciliation happens to run first — which is how a second
        team's scale-out starves another team's upgrade (§VI.A).
        """
        names = sorted(self.state.auto_scaling_groups)
        if names:
            rotation = self._tick % len(names)
            names = names[rotation:] + names[:rotation]
        self._tick += 1
        for asg_name in names:
            self._reconcile_asg(asg_name)

    def _reconcile_asg(self, asg_name: str) -> None:
        groups = self.state.auto_scaling_groups
        asg = groups.get(asg_name)
        if asg is None:
            return
        instances = self.state.instances
        # One scan, one lookup per member: what survives is exactly the
        # pending and healthy-running members, so the pruned membership
        # and the active fleet are the same tuple.
        active = []
        for iid in asg.instance_ids:
            instance = instances.get(iid)
            if instance is None:
                continue
            if instance.state is _RUNNING:
                if instance.healthy:
                    active.append(iid)
                else:
                    # The ASG replaces unhealthy instances (§V.B of the paper).
                    self._terminate_member(asg_name, iid, cause="unhealthy")
            elif instance.state is _PENDING:
                active.append(iid)
        active = tuple(active)
        # Replacing an unhealthy member wrote the group's next version.
        asg = groups[asg_name]
        if active != asg.instance_ids:
            self.state.write("auto_scaling_group", asg_name, self.engine.now, instance_ids=active)
        gap = asg.desired_capacity - len(active)
        if gap > 0 and self.LAUNCH not in asg.suspended_processes:
            for _ in range(gap):
                self._try_launch(asg_name)
        elif gap < 0 and self.TERMINATE not in asg.suspended_processes:
            # Scale in: terminate the oldest instances first (AWS default-ish).
            by_age = sorted(active, key=lambda iid: instances[iid].launch_time)
            for iid in by_age[: abs(gap)]:
                self._terminate_member(asg_name, iid)

    def _try_launch(self, asg_name: str) -> None:
        asg = self.state.auto_scaling_groups[asg_name]
        try:
            lc = self._validate_launch(asg)
        except CloudError as exc:
            self.state.scaling_activities.append(
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
        instance_id = self.state.new_id("instance")
        instance = Instance(
            instance_id=instance_id,
            image_id=lc.image_id,
            instance_type=lc.instance_type,
            key_name=lc.key_name,
            security_groups=lc.security_groups,
            state=InstanceState.PENDING,
            launch_time=self.engine.now,
            asg_name=asg_name,
        )
        self.state.put("instance", instance_id, instance, self.engine.now)
        members = asg.instance_ids + (instance_id,)
        self.state.write("auto_scaling_group", asg_name, self.engine.now, instance_ids=members)
        self.state.scaling_activities.append(
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

    def _validate_launch(self, asg) -> LaunchConfiguration:
        """The launch configuration to boot from, or the CloudError a real
        launch attempt would surface."""
        state = self.state
        lc = state.launch_configurations.get(asg.launch_configuration_name)
        if lc is None:
            raise ResourceNotFound.of("launch_configuration", asg.launch_configuration_name)
        if lc.image_id not in state.amis:
            raise ResourceNotFound.of("ami", lc.image_id)
        if lc.key_name not in state.key_pairs:
            raise ResourceNotFound.of("key_pair", lc.key_name)
        for group in lc.security_groups:
            if group not in state.security_groups:
                raise ResourceNotFound.of("security_group", group)
        if state.active_instance_count() >= state.limits.max_instances:
            raise LimitExceeded(
                f"account limit of {state.limits.max_instances} instances reached"
            )
        return lc

    def _boot(self, asg_name: str, instance_id: str) -> _t.Generator:
        yield self.engine.timeout(self.boot_latency.sample())
        instance = self.state.instances.get(instance_id)
        if instance is None or instance.state is not _PENDING:
            return
        self.state.write("instance", instance_id, self.engine.now, state=_RUNNING)
        self.state.scaling_activities.append(
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
        instance = self.state.instances.get(instance_id)
        # Terminated inside the registration delay: an ELB must never
        # register an instance that is no longer running.
        if asg is None or instance is None or instance.state is not _RUNNING:
            return
        for elb_name in asg.load_balancer_names:
            elb = self.state.load_balancers.get(elb_name)
            if elb is None or not elb.available:
                reason = "not found" if elb is None else "unavailable"
                self.state.scaling_activities.append(
                    ScalingActivity(
                        time=self.engine.now,
                        asg_name=asg_name,
                        activity=self.LAUNCH,
                        status="Failed",
                        description=(
                            f"Registering {instance_id} with load balancer {elb_name} failed:"
                            f" load balancer {reason}"
                        ),
                        error_code=ServiceUnavailable.code,
                        instance_id=instance_id,
                    )
                )
            elif instance_id not in elb.registered_instances:
                registered = elb.registered_instances + (instance_id,)
                self.state.write(
                    "load_balancer", elb_name, self.engine.now, registered_instances=registered
                )

    def _terminate_member(self, asg_name: str, instance_id: str, cause: str = "scale-in") -> None:
        now = self.engine.now
        members = self.state.auto_scaling_groups[asg_name].instance_ids
        if instance_id in members:
            remaining = tuple(iid for iid in members if iid != instance_id)
            self.state.write("auto_scaling_group", asg_name, now, instance_ids=remaining)
        self.state.write(
            "instance", instance_id, now, state=InstanceState.SHUTTING_DOWN, terminate_time=now
        )
        self.state.scaling_activities.append(
            ScalingActivity(
                time=self.engine.now,
                asg_name=asg_name,
                activity=self.TERMINATE,
                status="Successful",
                description=f"Terminating EC2 instance ({cause}): {instance_id}",
                instance_id=instance_id,
            )
        )
        self.engine.process(self._finish_termination(instance_id), name=f"asg-term-{instance_id}")

    def _finish_termination(self, instance_id: str) -> _t.Generator:
        yield self.engine.timeout(4.0)
        self.state.finish_termination(instance_id, self.engine.now)
