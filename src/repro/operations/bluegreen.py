"""Blue/green deployment: a second operation type under POD-Diagnosis.

§III.C claims the approach "is generalizable to other operations" — the
fault trees reuse across "any sporadic operations using the cloud API",
and conformance checking "is purely automatic, given the process model".
This module makes the claim concrete: a complete second sporadic
operation with its own process model, pattern library and bindings,
watched by the *same* POD-Diagnosis machinery, diagnosed by the *same*
fault trees.

The process (the expensive-but-simple alternative to rolling upgrade the
paper's §II mentions — "unless expensive redundancy is used"):

1. provision a parallel *green* stack (new LC + new ASG) at full capacity;
2. wait for the green fleet to come up;
3. shift traffic: register green instances with the ELB;
4. verify green is serving;
5. drain: deregister the blue instances;
6. decommission the blue stack (desired capacity 0);
7. done.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cloud.errors import CloudError
from repro.logsys.annotator import AssertionAnnotator
from repro.logsys.patterns import END, PROGRESS, START as POS_START, LogPattern, PatternLibrary
from repro.operations.base import Operation
from repro.operations.profile import OperationProfile
from repro.operations.target import TargetConfig
from repro.process.model import ProcessModel

# Canonical activity names.
BG_START = "start_bluegreen"
BG_PROVISION = "provision_green_stack"
BG_WAIT = "wait_for_green_capacity"
BG_STATUS = "green_status_info"
BG_SHIFT = "shift_traffic_to_green"
BG_VERIFY = "verify_green_serving"
BG_DRAIN = "drain_blue_instances"
BG_DECOMMISSION = "decommission_blue_stack"
BG_COMPLETED = "bluegreen_completed"


@dataclasses.dataclass
class BlueGreenParams:
    """Target configuration of one blue/green deployment."""

    blue_asg: str
    green_asg: str
    elb_name: str
    lc_name: str
    target: TargetConfig
    capacity: int
    poll_interval: float = 10.0
    green_timeout: float = 600.0
    verify_timeout: float = 60.0


@dataclasses.dataclass
class BlueGreenCheckpoint:
    """Phase-level progress of one blue/green attempt.

    A resumed attempt skips the non-idempotent green-stack creation when
    ``provisioned`` and replays the remaining phases (waits, shift,
    verify, drain are idempotent against current cloud state), emitting a
    fresh conformant trace.
    """

    provisioned: bool = False
    phases_done: list[str] = dataclasses.field(default_factory=list)
    attempts: int = 0

    def mark(self, phase: str) -> None:
        if phase not in self.phases_done:
            self.phases_done.append(phase)


class BlueGreenOperation(Operation):
    """Stand up green at full capacity, switch, tear down blue."""

    def __init__(
        self,
        engine,
        client,
        stream,
        params: BlueGreenParams,
        trace_id: str,
        checkpoint: BlueGreenCheckpoint | None = None,
    ) -> None:
        super().__init__(engine, client, stream, name="blue-green", trace_id=trace_id)
        self.params = params
        self.resuming = checkpoint is not None
        self.checkpoint = checkpoint or BlueGreenCheckpoint()

    def run(self) -> _t.Generator:
        p = self.params
        target = p.target
        ckpt = self.checkpoint
        ckpt.attempts += 1
        self.log(f"Blue/green deployment of {target.image_id} for group {p.blue_asg} started")

        # -- provision the green stack -------------------------------------
        if not ckpt.provisioned:
            yield from self.call(
                "create_launch_configuration",
                p.lc_name, target.image_id, target.instance_type, target.key_name,
                target.security_groups,
            )
            yield from self.call(
                "create_auto_scaling_group",
                p.green_asg, p.lc_name,
                0, p.capacity + 2, p.capacity,
                None,  # not yet attached to the ELB: traffic shifts explicitly
            )
            ckpt.provisioned = True
        ckpt.mark("provision")
        self.log(f"Provisioned green stack {p.green_asg} with {p.lc_name} at capacity {p.capacity}")

        # -- wait for the green fleet ----------------------------------------
        self.log(f"Waiting for green stack {p.green_asg} to reach capacity")
        green_ids = yield from self._wait_green()
        if green_ids is None:
            self.fail(
                f"Exception during blue/green of {p.blue_asg}:"
                f" timeout waiting for green capacity"
            )
            return
        ckpt.mark("wait")

        # -- shift traffic ------------------------------------------------------
        try:
            yield from self.call("register_instances_with_load_balancer", p.elb_name, green_ids)
        except CloudError as exc:
            self.fail(f"Exception during blue/green of {p.blue_asg}: traffic shift failed: {exc}")
            return
        ckpt.mark("shift")
        self.log(f"Shifted traffic: {len(green_ids)} green instances registered with {p.elb_name}")

        # -- verify green serving --------------------------------------------------
        serving = yield from self._verify_green(green_ids)
        if not serving:
            self.fail(
                f"Exception during blue/green of {p.blue_asg}: green stack never became healthy"
            )
            return
        ckpt.mark("verify")
        self.log(f"Verified green stack serving: {len(green_ids)} of {p.capacity} in service")

        # -- drain + decommission blue ------------------------------------------------
        blue_instances = yield from self.call("describe_instances_in_asg", p.blue_asg)
        blue_ids = [i["InstanceId"] for i in blue_instances]
        if blue_ids:
            try:
                yield from self.call(
                    "deregister_instances_from_load_balancer", p.elb_name, blue_ids
                )
            except CloudError as exc:
                self.fail(f"Exception during blue/green of {p.blue_asg}: drain failed: {exc}")
                return
        ckpt.mark("drain")
        self.log(f"Drained {len(blue_ids)} blue instances from {p.elb_name}")
        yield from self.call("update_auto_scaling_group", p.blue_asg, min_size=0, desired_capacity=0)
        ckpt.mark("decommission")
        self.log(f"Decommissioned blue stack {p.blue_asg}")

        self.log(f"Blue/green deployment completed for group {p.blue_asg}")

    def _wait_green(self) -> _t.Generator:
        p = self.params
        deadline = self.engine.now + p.green_timeout
        polls = 0
        while self.engine.now < deadline:
            try:
                instances = yield from self.call("describe_instances_in_asg", p.green_asg)
            except CloudError:
                instances = []
            running = [i["InstanceId"] for i in instances if i["State"]["Name"] == "running"]
            if len(running) >= p.capacity:
                return sorted(running)
            polls += 1
            if polls % 3 == 0:
                self.log(
                    f"Green status: {len(running)} of {p.capacity} green instances running"
                )
            yield self.engine.timeout(p.poll_interval)
        return None

    def _verify_green(self, green_ids: list[str]) -> _t.Generator:
        p = self.params
        deadline = self.engine.now + p.verify_timeout
        while self.engine.now < deadline:
            try:
                health = yield from self.call("describe_instance_health", p.elb_name)
            except CloudError:
                health = []
            in_service = {
                h["InstanceId"] for h in health if h["State"] == "InService"
            }
            if set(green_ids) <= in_service:
                return True
            yield self.engine.timeout(p.poll_interval)
        return False


# ---------------------------------------------------------------------------
# POD artifacts (the once-per-operation analyst bundle, §III.C).
# ---------------------------------------------------------------------------


def reference_model() -> ProcessModel:
    model = ProcessModel("blue-green")
    model.add_sequence(BG_START, BG_PROVISION, BG_WAIT)
    model.add_edge(BG_WAIT, BG_STATUS)
    model.add_edge(BG_STATUS, BG_STATUS)
    model.add_edge(BG_STATUS, BG_SHIFT)
    model.add_edge(BG_WAIT, BG_SHIFT)
    model.add_sequence(BG_SHIFT, BG_VERIFY, BG_DRAIN, BG_DECOMMISSION, BG_COMPLETED)
    model.mark_start(BG_START)
    model.mark_end(BG_COMPLETED)
    return model


def build_pattern_library() -> PatternLibrary:
    return PatternLibrary(
        [
            LogPattern(
                BG_START,
                r"Blue/green deployment of (?P<amiid>ami-[0-9a-f]+) for group (?P<asgid>\S+) started",
                position=END,
            ),
            LogPattern(
                BG_PROVISION,
                r"Provisioned green stack (?P<asgid>\S+) with (?P<lcname>\S+)"
                r" at capacity (?P<num>\d+)",
                position=END,
            ),
            LogPattern(
                BG_WAIT,
                r"Waiting for green stack (?P<asgid>\S+) to reach capacity",
                position=POS_START,
            ),
            LogPattern(
                BG_STATUS,
                r"Green status: (?P<num>\d+) of (?P<num2>\d+) green instances running",
                position=PROGRESS,
            ),
            LogPattern(
                BG_SHIFT,
                r"Shifted traffic: (?P<num>\d+) green instances registered with (?P<elbid>\S+)",
                position=END,
            ),
            LogPattern(
                BG_VERIFY,
                r"Verified green stack serving: (?P<num>\d+) of (?P<num2>\d+) in service",
                position=END,
            ),
            LogPattern(
                BG_DRAIN,
                r"Drained (?P<num>\d+) blue instances from (?P<elbid>\S+)",
                position=END,
            ),
            LogPattern(
                BG_DECOMMISSION,
                r"Decommissioned blue stack (?P<asgid>\S+)",
                position=END,
            ),
            LogPattern(
                BG_COMPLETED,
                r"Blue/green deployment completed for group (?P<asgid>\S+)",
                position=END,
            ),
            LogPattern("operation_error", r"Exception during .*", position=END, is_error=True),
        ]
    )


def standard_bindings() -> AssertionAnnotator:
    """Step → assertion bindings for blue/green.

    The *same* predefined assertion library serves a different operation:
    counts against the green ASG, the ELB availability floor at the
    traffic shift, and the final resource-existence regression checks.
    """
    annotator = AssertionAnnotator()
    annotator.bind(BG_PROVISION, "end", ["asg-uses-correct-config"])
    annotator.bind(BG_SHIFT, "end", ["asg-has-n-instances", "elb-has-registered-instances"])
    annotator.bind(BG_VERIFY, "end", ["asg-has-n-new-version-instances"])
    annotator.bind(
        BG_COMPLETED,
        "end",
        [
            "asg-has-n-new-version-instances",
            "elb-has-registered-instances",
            "ami-exists",
            "key-pair-exists",
            "security-group-exists",
            "load-balancer-exists",
        ],
    )
    return annotator


#: Green provisioning launches the whole fleet in parallel, so the gap is
#: one max-of-N boot: calibrate accordingly (95th pct of max-of-4 boots).
DEFAULT_WATCHDOG_INTERVAL = 175.0


def blue_green_profile() -> OperationProfile:
    from repro.operations import steps as ru_steps

    return OperationProfile(
        profile_id="blue-green",
        model=reference_model(),
        library=build_pattern_library(),
        bindings_factory=standard_bindings,
        watchdog_start=BG_START,
        watchdog_end=BG_COMPLETED,
        watchdog_aligns=(BG_PROVISION, BG_SHIFT, BG_VERIFY, BG_DRAIN, BG_DECOMMISSION),
        watchdog_assertions=("asg-has-n-running-instances", "elb-has-registered-instances"),
        # Map blue/green activities onto the canonical steps the shared
        # fault trees scope by: provisioning is a launch-configuration
        # change, the wait is an instance launch, shift/verify play the
        # role of "new instance ready", and so on.
        step_aliases={
            BG_PROVISION: ru_steps.UPDATE_LC,
            BG_WAIT: ru_steps.WAIT_ASG,
            BG_STATUS: ru_steps.STATUS,
            BG_SHIFT: ru_steps.READY,
            BG_VERIFY: ru_steps.READY,
            BG_DRAIN: ru_steps.DEREGISTER,
            BG_DECOMMISSION: ru_steps.TERMINATE,
            BG_COMPLETED: ru_steps.COMPLETED,
        },
    )
