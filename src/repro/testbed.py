"""Testbed: one fully provisioned cluster + POD-Diagnosis + upgrade.

Reproduces the paper's experiment setup (§V.B): an ASG-backed cluster of 4
or 20 instances behind an ELB (standing in for the Redis/Logstash/
ElasticSearch/Kibana log-monitoring application), Asgard-style rolling
upgrade from version A to version B, and the POD-Diagnosis service
watching the operation log.  Used by the examples, the integration tests
and the evaluation campaign.
"""

from __future__ import annotations

import dataclasses

from repro.cloud.chaos import ChaosController, get_profile
from repro.cloud.provider import SimulatedCloud
from repro.cloud.limits import AccountLimits
from repro.logsys.record import LogStream
from repro.operations.base import COMPLETED as OP_COMPLETED, FAILED as OP_FAILED
from repro.operations.rolling_upgrade import (
    DEFAULT_WATCHDOG_INTERVAL,
    LARGE_BATCH_WATCHDOG_INTERVAL,
    RollingUpgradeOperation,
    RollingUpgradeParams,
)
from repro.operations.target import TargetConfig
from repro.pod.service import PODDiagnosis

#: A resumed attempt has at most the failed batch and what followed it
#: left: half a fresh upgrade's horizon, virtual seconds.
RESUME_HORIZON = 2700.0

#: Virtual seconds an ended operation's in-flight evaluations get before
#: the quiesce drains them.
SETTLE_TIME = 60.0

#: The upgrade's batch size k by cluster size n (1 elsewhere): the paper
#: upgrades 1 node at a time on 4-instance clusters and 4 at a time on
#: 20-instance clusters.
BATCH_SIZE_BY_CLUSTER = {4: 1, 20: 4}


@dataclasses.dataclass
class AppStack:
    """Names/ids of the provisioned application resources."""

    asg_name: str
    elb_name: str
    key_name: str
    security_group: str
    instance_type: str
    ami_v1: str
    ami_v2: str
    lc_v1: str
    lc_v2: str


class Testbed:
    """A provisioned cluster with POD-Diagnosis attached."""

    #: Not a test class, despite the name (pytest collection hint).
    __test__ = False

    def __init__(
        self,
        cluster_size: int = 4,
        seed: int = 0,
        max_instances: int = 40,
        chaos=None,
    ) -> None:
        self.cluster_size = cluster_size
        self.seed = seed
        self.cloud = SimulatedCloud(seed=seed, limits=AccountLimits(max_instances=max_instances))
        self.engine = self.cloud.engine
        # API-plane chaos: a level name, or None for a calm plane.
        self.chaos = ChaosController(self.engine, get_profile(chaos), seed=seed + 71)
        self.stack = self._provision()
        self.cloud.start()
        # Let the initial fleet boot before anything else happens.
        self.engine.run(until=300.0)

        # The upgrade to version B, declared once: the orchestrator runs
        # it (first and resumed attempts alike), POD judges its traces
        # against it, ground truth and recovery compare against it.
        self.params = RollingUpgradeParams(
            asg_name=self.stack.asg_name,
            elb_name=self.stack.elb_name,
            lc_name=self.stack.lc_v2,
            target=TargetConfig(
                image_id=self.stack.ami_v2,
                key_name=self.stack.key_name,
                instance_type=self.stack.instance_type,
                security_groups=[self.stack.security_group],
            ),
            desired_capacity=cluster_size,
            batch_size=BATCH_SIZE_BY_CLUSTER.get(cluster_size, 1),
        )
        self.pod = PODDiagnosis(
            self.cloud,
            LARGE_BATCH_WATCHDOG_INTERVAL if self.params.batch_size > 1 else DEFAULT_WATCHDOG_INTERVAL,
            seed=seed, chaos=self.chaos,
        )
        self.stream = LogStream("asgard.log")
        #: When the upgrade started: the ``since`` of every attempt's
        #: trace (a resumed attempt is the same operation).
        self.started_at: float | None = None
        self.upgrade: RollingUpgradeOperation | None = None
        #: Resumed attempts (recovery plane), in launch order.
        self.resumed: list[RollingUpgradeOperation] = []
        #: Recovery engines run on this testbed, in order; the run's
        #: metrics read their counters and their clients'.
        self.recoveries: list = []

    # -- provisioning -----------------------------------------------------------

    def _provision(self) -> AppStack:
        api = self.cloud.api("setup")
        ami_v1 = api.register_image("log-monitoring-app", "v1")["ImageId"]
        ami_v2 = api.register_image("log-monitoring-app", "v2")["ImageId"]
        api.create_key_pair("key-prod")
        api.create_security_group("sg-web")
        api.create_load_balancer("elb-dsn")
        api.create_launch_configuration("lc-app-v1", ami_v1, "m1.small", "key-prod", ["sg-web"])
        api.create_auto_scaling_group(
            "asg-dsn",
            "lc-app-v1",
            min_size=max(1, self.cluster_size - 2),
            max_size=self.cluster_size + 4,
            desired_capacity=self.cluster_size,
            load_balancer_names=["elb-dsn"],
        )
        return AppStack(
            asg_name="asg-dsn",
            elb_name="elb-dsn",
            key_name="key-prod",
            security_group="sg-web",
            instance_type="m1.small",
            ami_v1=ami_v1,
            ami_v2=ami_v2,
            lc_v1="lc-app-v1",
            lc_v2="lc-app-v2",
        )

    # -- ground truth --------------------------------------------------------------

    def has_wrong_instance(self, where) -> bool:
        """Does any instance of the ASG that ``where`` keeps (launched in
        some window, still active, ...) mismatch the target?  Read off the
        region's own write history: no API call, no virtual time."""
        state = self.cloud.state
        target = self.params.target
        return any(
            instance.asg_name == self.params.asg_name
            and where(instance)
            and target.mismatches(state.latest_view("instance", instance.instance_id))
            for instance in state.instances.values()
        )

    # -- running an upgrade -----------------------------------------------------------

    def _launch(self, stream, trace_id, seed_offset, checkpoint=None) -> RollingUpgradeOperation:
        """Watch ``stream`` and start a rolling upgrade to version B on it."""
        self.pod.watch(stream, trace_id, self.params, self.started_at)
        client = self.cloud.client("asgard", latency_seed_offset=seed_offset)
        operation = RollingUpgradeOperation(
            self.engine, client, stream, self.params, trace_id, checkpoint=checkpoint
        )
        operation.start()
        return operation

    def _drive(self, operation: RollingUpgradeOperation, horizon: float) -> None:
        """Run until the operation ends (or the horizon), then
        ``SETTLE_TIME`` more and a quiesce, so in-flight assertion
        evaluations and diagnoses finish before callers read metrics."""
        deadline = self.engine.now + horizon
        while self.engine.now < deadline:
            if operation.status in (OP_COMPLETED, OP_FAILED):
                break
            self.engine.run(until=min(self.engine.now + 10.0, deadline))
        self.pod.timers.stop_all()
        self.engine.run(until=self.engine.now + SETTLE_TIME)
        self.pod.quiesce()

    def start_upgrade(self, trace_id: str = "upgrade-1") -> RollingUpgradeOperation:
        """Arm POD on the operation log and launch the rolling upgrade."""
        if self.upgrade is not None:
            raise RuntimeError("upgrade already started")
        self.started_at = self.engine.now
        self.upgrade = self._launch(self.stream, trace_id, seed_offset=7)
        return self.upgrade

    def run_upgrade(
        self, trace_id: str = "upgrade-1", horizon: float = 5400.0
    ) -> RollingUpgradeOperation:
        """Run the upgrade to completion/failure (see :meth:`_drive`)."""
        operation = self.start_upgrade(trace_id)
        self._drive(operation, horizon)
        return operation

    # -- resuming after recovery --------------------------------------------------

    def resume_upgrade(
        self, checkpoint, trace_id: str = "upgrade-resume"
    ) -> RollingUpgradeOperation:
        """Resume an interrupted upgrade from its batch checkpoint.

        The resumed attempt runs on a *fresh* log stream under a new
        trace id: POD re-runs conformance checking on the resumed trace
        as its own process instance (the watchdog re-arms off the new
        start line), while remaining work is re-derived from cloud state
        so already-replaced instances are not replaced twice.
        """
        stream = LogStream(f"asgard-{trace_id}.log")
        operation = self._launch(stream, trace_id, seed_offset=13, checkpoint=checkpoint)
        self._drive(operation, RESUME_HORIZON)
        self.resumed.append(operation)
        return operation

    def close(self) -> None:
        """End the run (DESIGN.md §8 "Run lifecycle"); cloud state and
        everything recorded stay readable.  Idempotent."""
        self.pod.close()
        self.cloud.controller.stop()
        self.cloud.monitor.stop()
        self.engine.close()


def build_testbed(cluster_size: int = 4, seed: int = 0, **kwargs) -> Testbed:
    """Convenience constructor; any size works, the paper evaluated 4 and 20."""
    return Testbed(cluster_size=cluster_size, seed=seed, **kwargs)
