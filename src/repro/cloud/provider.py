"""Convenience bundle: a fully wired simulated cloud.

Creates the engine, region state, CloudTrail, Edda-style monitor, ASG
controller and fault injector together with consistent seeding, so tests,
examples and the evaluation campaign can say ``cloud = SimulatedCloud()``
and get the whole substrate.
"""

from __future__ import annotations

from repro.cloud.api import CloudAPI, TimedCloudClient
from repro.cloud.cloudtrail import CloudTrail
from repro.cloud.consistency import ConsistencyModel
from repro.cloud.controller import AsgController
from repro.cloud.faults import FaultInjector
from repro.cloud.limits import AccountLimits
from repro.cloud.monitor import CloudMonitor
from repro.cloud.state import CloudState
from repro.sim.engine import Engine
from repro.sim.latency import aws_api_latency, instance_boot_latency


class SimulatedCloud:
    """Everything POD-Diagnosis needs to stand in for AWS."""

    def __init__(
        self,
        seed: int = 0,
        limits: AccountLimits | None = None,
        mean_consistency_lag: float = 2.5,
    ) -> None:
        self.seed = seed
        self.engine = Engine()
        self.state = CloudState(limits=limits)
        self.trail = CloudTrail(self.engine.clock, seed=seed + 11)
        self.consistency = ConsistencyModel(mean_lag=mean_consistency_lag, seed=seed + 13)
        self.controller = AsgController(
            self.engine,
            self.state,
            boot_latency=instance_boot_latency(seed=seed + 17),
        )
        self.monitor = CloudMonitor(self.engine, self.state)
        self.injector = FaultInjector(self.engine, self.state, trail=self.trail)
        self._apis: dict[str, CloudAPI] = {}

    def attach_obs(self, obs) -> None:
        """Mirror data-plane counters (reads, snapshot sharing) into an
        observability registry (None: mirror nothing)."""
        self.state.attach_obs(obs)

    def start(self) -> None:
        """Start the background control loops (ASG controller, monitor)."""
        self.controller.start()
        self.monitor.start()

    def api(self, principal: str = "default") -> CloudAPI:
        """A per-principal API facade (created once, then cached)."""
        if principal not in self._apis:
            self._apis[principal] = CloudAPI(
                self.engine,
                self.state,
                trail=self.trail,
                principal=principal,
                consistency=self.consistency,
            )
        return self._apis[principal]

    def client(self, principal: str = "default", latency_seed_offset: int = 0) -> TimedCloudClient:
        """A latency-paying client for simulation processes."""
        return TimedCloudClient(
            self.engine,
            self.api(principal),
            latency=aws_api_latency(seed=self.seed + 29 + latency_seed_offset),
        )
