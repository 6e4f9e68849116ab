"""The rolling upgrade operation (§II) and its POD artifacts.

This module is the Asgard stand-in plus the per-operation artifacts the
analyst creates once (§III.C):

- :class:`RollingUpgradeOperation` — the orchestrator: update launch
  configuration, sort instances, then per batch deregister → terminate →
  wait for the ASG to launch a replacement → wait for ELB registration,
  emitting Asgard-style log lines throughout;
- :func:`reference_process_model` — the Fig. 2 process model;
- :func:`build_pattern_library` — the regex transformation rules mapping
  log lines to activities;
- :func:`standard_bindings` — which assertions each step triggers;
- the watchdog calibration (95th percentile of step gaps, §IV) and the
  assertions its expiry triggers when a step's completion line never
  appears.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.cloud.errors import CloudError
from repro.logsys.annotator import AssertionAnnotator
from repro.logsys.patterns import END, PROGRESS, START as POS_START, LogPattern, PatternLibrary
from repro.operations.base import Operation
from repro.operations.steps import (
    COMPLETED,
    DEREGISTER,
    READY,
    SORT,
    START,
    STATUS,
    TERMINATE,
    UPDATE_LC,
    WAIT_ASG,
)
from repro.operations.target import TargetConfig
from repro.process.model import ProcessModel


#: Asgard's pacing: seconds between polls of the ASG or the ELB, and a
#: status line (instead of DEBUG chatter) every ``STATUS_EVERY``-th poll.
POLL_INTERVAL = 10.0
STATUS_EVERY = 3
#: Seconds Asgard waits for a batch's replacements to run, and for one
#: replacement to register with the ELB, before it gives up.
WAIT_TIMEOUT = 900.0
ELB_TIMEOUT = 25.0


@dataclasses.dataclass
class RollingUpgradeParams:
    """What one rolling upgrade operates on, declared once: the
    orchestrator runs it, and POD judges the operation's trace against
    the configuration repository derived from it."""

    asg_name: str
    elb_name: str
    lc_name: str  # name for the new launch configuration
    target: TargetConfig
    #: The group's size N once the upgrade is done.
    desired_capacity: int
    #: Instances replaced per batch, the paper's k
    #: (``repro.testbed.BATCH_SIZE_BY_CLUSTER``): during the upgrade at
    #: least N' = N - k instances must stay in service (§II's floor).
    batch_size: int = 1

    def as_repository(self, since: float) -> dict:
        """One trace's configuration repository; ``since`` (the operation's
        start) bounds historical queries during diagnosis.  Mutable by
        design: a scale-in operated through proper channels would update
        ``desired_capacity`` here; the evaluation deliberately does *not*
        (the interference is unannounced), which is what turns concurrent
        scale-ins into detected anomalies."""
        return {
            "asg_name": self.asg_name,
            "elb_name": self.elb_name,
            "desired_capacity": self.desired_capacity,
            # The fault trees' name for the same number.
            "N": self.desired_capacity,
            "min_in_service": max(1, self.desired_capacity - self.batch_size),
            **self.target.as_repository(),
            "lc_name": self.lc_name,
            "since": since,
        }


@dataclasses.dataclass
class UpgradeCheckpoint:
    """Batch-level progress of one rolling upgrade attempt.

    Written as the operation runs; read by a resumed attempt so the
    orchestrator restarts from the failed batch instead of redoing the
    whole upgrade.  Remaining work is re-derived from cloud state at
    resume time (any active instance whose configuration mismatches the
    target), so instances replaced by the failed attempt are never
    replaced twice.
    """

    #: The new launch configuration exists and the ASG points at it.
    lc_ready: bool = False
    #: Batches fully replaced and verified (READY lines emitted).
    batches_done: int = 0
    #: Instance ids terminated by previous attempt(s) + this one.
    replaced: list[str] = dataclasses.field(default_factory=list)
    #: How many attempts have written to this checkpoint (1 = first run).
    attempts: int = 0


class RollingUpgradeOperation(Operation):
    """Replace every instance of an ASG with the new version, k at a time."""

    def __init__(
        self,
        engine,
        client,
        stream,
        params: RollingUpgradeParams,
        trace_id: str,
        checkpoint: UpgradeCheckpoint | None = None,
    ) -> None:
        super().__init__(engine, client, stream, name="rolling-upgrade", trace_id=trace_id)
        self.params = params
        self.relaunches_done = 0
        self.total_relaunches = 0
        #: Resuming when given a prior attempt's checkpoint: skip the
        #: non-idempotent create, replace only still-wrong instances.
        self.resuming = checkpoint is not None
        self.checkpoint = checkpoint or UpgradeCheckpoint()

    def run(self) -> _t.Generator:
        p = self.params
        target = p.target
        ckpt = self.checkpoint
        ckpt.attempts += 1
        self.log(f"Pushing {target.image_id} into group {p.asg_name}: rolling upgrade task started")

        # -- Step: update launch configuration ----------------------------
        if not ckpt.lc_ready:
            yield from self.call(
                "create_launch_configuration",
                p.lc_name,
                target.image_id,
                target.instance_type,
                target.key_name,
                target.security_groups,
            )
        # Idempotent either way; a resumed attempt re-asserts the pointer
        # and re-emits the step line so the resumed trace replays
        # conformantly from the process model's start.
        yield from self.call("update_auto_scaling_group", p.asg_name, launch_configuration_name=p.lc_name)
        ckpt.lc_ready = True
        self.log(
            f"Updated launch configuration of group {p.asg_name} to {p.lc_name}"
            f" with image {target.image_id}"
        )

        # -- Step: sort instances -------------------------------------------
        instances = yield from self.call("describe_instances_in_asg", p.asg_name)
        candidates = [
            i
            for i in sorted(instances, key=lambda i: (i["LaunchTime"], i["InstanceId"]))
            if i["State"]["Name"] in ("running", "pending")
        ]
        if self.resuming:
            # Restart from the failed batch: everything already replaced
            # with a correct-config instance is left alone; the remaining
            # old-version (or wrong-config) instances are the failed batch
            # plus the batches the failed attempt never reached.
            candidates = [i for i in candidates if target.mismatches(i)]
        old_ids = [i["InstanceId"] for i in candidates]
        self.total_relaunches = len(old_ids)
        self.log(f"Sorted {len(old_ids)} instances of group {p.asg_name} for replacement")

        # -- The upgrade loop ------------------------------------------------
        for batch_start in range(0, len(old_ids), p.batch_size):
            batch = old_ids[batch_start : batch_start + p.batch_size]
            known = yield from self._current_instance_ids()
            replaced_in_batch = 0
            terminated: list[str] = []
            for instance_id in batch:
                # Concurrent operations may have removed the instance
                # already (scale-in, external termination) — skip it, as
                # Asgard does, instead of waiting for a replacement the
                # ASG will never launch.
                try:
                    described = yield from self.call("describe_instance", instance_id, consistent=True)
                    alive = described["State"]["Name"] in ("running", "pending")
                except CloudError:
                    alive = False
                if not alive:
                    self.log(
                        f"Instance {instance_id} is gone from group {p.asg_name};"
                        f" skipping its relaunch slot"
                    )
                    continue
                try:
                    yield from self.call(
                        "deregister_instances_from_load_balancer", p.elb_name, [instance_id]
                    )
                except CloudError as exc:
                    self.fail(
                        f"Exception during rolling upgrade of group {p.asg_name}:"
                        f" failure deregistering instance {instance_id}: {exc}"
                    )
                    return
                self.log(
                    f"Deregistered instance {instance_id} from load balancer {p.elb_name}"
                )
                yield from self.call("terminate_instance_in_auto_scaling_group", instance_id)
                self.log(f"Terminating instance {instance_id} in group {p.asg_name}")
                replaced_in_batch += 1
                terminated.append(instance_id)

            if replaced_in_batch == 0:
                continue
            self.log(f"Waiting for group {p.asg_name} to start a new instance")
            new_ids = yield from self._wait_for_new_instances(known, replaced_in_batch)
            if new_ids is None:
                self.fail(
                    f"Exception during rolling upgrade of group {p.asg_name}:"
                    f" timeout waiting for replacement instances"
                )
                return
            for new_id in new_ids:
                registered = yield from self._wait_elb_registration(new_id)
                if not registered:
                    self.fail(
                        f"Exception during rolling upgrade of group {p.asg_name}:"
                        f" instance {new_id} never registered with {p.elb_name}"
                    )
                    return
                self.relaunches_done += 1
                self.log(
                    f"Instance {new_id} is ready for use in group {p.asg_name}."
                    f" {self.relaunches_done} of {self.total_relaunches}"
                    f" instance relaunches done"
                )
            ckpt.batches_done += 1
            ckpt.replaced.extend(terminated)

        self.log(f"Rolling upgrade task completed for group {p.asg_name}")

    # -- waits --------------------------------------------------------------------

    def _current_instance_ids(self) -> _t.Generator:
        instances = yield from self.call("describe_instances_in_asg", self.params.asg_name)
        return {i["InstanceId"] for i in instances}

    def _wait_for_new_instances(self, known: set, count: int) -> _t.Generator:
        """Poll the ASG until ``count`` new instances are running."""
        p = self.params
        deadline = self.engine.now + WAIT_TIMEOUT
        polls = 0
        while self.engine.now < deadline:
            try:
                instances = yield from self.call("describe_instances_in_asg", p.asg_name)
            except CloudError:
                instances = []
            fresh = [
                i["InstanceId"]
                for i in instances
                if i["InstanceId"] not in known and i["State"]["Name"] == "running"
            ]
            if len(fresh) >= count:
                return sorted(fresh)[:count]
            polls += 1
            if polls % STATUS_EVERY == 0:
                self.log(
                    f"Status info: {self.relaunches_done} of {self.total_relaunches}"
                    f" instance relaunches done"
                )
            else:
                # Framework chatter the noise filter is expected to drop.
                self.log(f"DEBUG com.netflix.asgard.Task polling {p.asg_name} for status")
            yield self.engine.timeout(POLL_INTERVAL)
        return None

    def _wait_elb_registration(self, instance_id: str) -> _t.Generator:
        """Poll the ELB until the instance is in service."""
        p = self.params
        deadline = self.engine.now + ELB_TIMEOUT
        while self.engine.now < deadline:
            try:
                health = yield from self.call("describe_instance_health", p.elb_name)
            except CloudError:
                health = []
            if any(h["InstanceId"] == instance_id and h["State"] == "InService" for h in health):
                return True
            yield self.engine.timeout(POLL_INTERVAL)
        return False


# ---------------------------------------------------------------------------
# POD artifacts for the rolling upgrade process (authored once, §III.C).
# ---------------------------------------------------------------------------


def reference_process_model() -> ProcessModel:
    """The Fig. 2 process model (the ground truth mining should recover)."""
    model = ProcessModel("rolling-upgrade")
    model.add_sequence(START, UPDATE_LC, SORT, DEREGISTER, TERMINATE, WAIT_ASG)
    model.add_edge(WAIT_ASG, STATUS)
    model.add_edge(STATUS, STATUS)
    model.add_edge(STATUS, READY)
    model.add_edge(WAIT_ASG, READY)
    # Batched replacement: several deregister/terminate pairs may precede
    # one wait.
    model.add_edge(TERMINATE, DEREGISTER)
    # Several instances may become ready per wait.
    model.add_edge(READY, READY)
    model.add_edge(READY, DEREGISTER)  # next loop iteration
    model.add_edge(READY, COMPLETED)
    model.mark_start(START)
    model.mark_end(COMPLETED)
    return model


def build_pattern_library() -> PatternLibrary:
    """Transformation rules: log line regex → activity tag (§III.A)."""
    return PatternLibrary(
        [
            LogPattern(
                START,
                r"Pushing (?P<amiid>ami-[0-9a-f]+) into group (?P<asgid>\S+):"
                r" rolling upgrade task started",
                position=END,
            ),
            LogPattern(
                UPDATE_LC,
                r"Updated launch configuration of group (?P<asgid>\S+) to (?P<lcname>\S+)"
                r" with image (?P<amiid>ami-[0-9a-f]+)",
                position=END,
            ),
            LogPattern(
                SORT,
                r"Sorted (?P<num>\d+) instances of group (?P<asgid>\S+) for replacement",
                position=END,
            ),
            LogPattern(
                DEREGISTER,
                r"Deregistered instance (?P<instanceid>i-[0-9a-f]+)"
                r" from load balancer (?P<elbid>\S+)",
                position=END,
            ),
            LogPattern(
                TERMINATE,
                r"Terminating instance (?P<instanceid>i-[0-9a-f]+) in group (?P<asgid>\S+)",
                position=END,
            ),
            LogPattern(
                WAIT_ASG,
                r"Waiting for group (?P<asgid>\S+) to start a new instance",
                position=POS_START,
            ),
            LogPattern(
                STATUS,
                r"Status info: (?P<num>\d+) of (?P<num2>\d+) instance relaunches done",
                position=PROGRESS,
            ),
            LogPattern(
                READY,
                r"Instance (?P<instanceid>i-[0-9a-f]+) is ready for use in group"
                r" (?P<asgid>\S+)\. (?P<num>\d+) of (?P<num2>\d+) instance relaunches done",
                position=END,
            ),
            LogPattern(
                COMPLETED,
                r"Rolling upgrade task completed for group (?P<asgid>\S+)",
                position=END,
            ),
            LogPattern(
                "operation_error",
                r"Exception during .*",
                position=END,
                is_error=True,
            ),
        ]
    )


def standard_bindings() -> AssertionAnnotator:
    """Which assertions each step's log line triggers.

    - after the launch configuration update: verify the ASG's config;
    - after each loop iteration (READY): overall count, the new instance's
      configuration, and ELB registration;
    - at completion: the final high-level checks.
    """
    annotator = AssertionAnnotator()
    annotator.bind(UPDATE_LC, END, ["asg-uses-correct-config"])
    annotator.bind(
        READY,
        END,
        ["asg-has-n-instances", "new-instance-correct-version", "elb-has-registered-instances"],
    )
    annotator.bind(
        COMPLETED,
        END,
        [
            "asg-has-n-new-version-instances",
            "asg-uses-correct-config",
            "elb-has-registered-instances",
            # End-of-upgrade regression checks: every resource the stack
            # references must still exist ("some assertions are added
            # because of the subtle errors ... they act like regression
            # tests", §VI.A).
            "ami-exists",
            "key-pair-exists",
            "security-group-exists",
            "load-balancer-exists",
        ],
    )
    return annotator


#: Watchdog calibration: expected worst-case gap between step-completion
#: lines.  Dominated by instance boot time; set at the 95th percentile of
#: the boot latency model plus orchestration overhead (the paper sets
#: timeouts "based on experiments, at the 95% percentile").  Gaps beyond
#: this are treated as a missing completion line.
DEFAULT_WATCHDOG_INTERVAL = 140.0
DEFAULT_WATCHDOG_SLACK = 8.0

#: With k instances replaced per batch the step gap is the max of k boot
#: times; the 95th-percentile calibration therefore scales with k.
LARGE_BATCH_WATCHDOG_INTERVAL = 170.0

#: Assertions a watchdog expiry triggers (no log line = no instance id, so
#: only the high-level checks are possible).  The *strict* count form is
#: used: the watchdog believes the step should have completed, so the
#: replacement must actually be running — which is also what makes a
#: merely-slow boot produce the paper's first false-positive class.
WATCHDOG_ASSERTIONS = ["asg-has-n-running-instances", "elb-has-registered-instances"]
