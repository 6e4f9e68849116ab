"""Interference: the confounding concurrent activity of §V.A/§V.B.

Composes the three confounders the paper mixed into its runs:

- a concurrent **scale-in** of the ASG under upgrade;
- **random instance terminations** (infrastructure uncertainty);
- a **second team** sharing the AWS account, running its own ASG and
  occasionally scaling it towards the shared instance limit.
"""

from __future__ import annotations

import dataclasses
import random
import typing as _t

from repro.logsys.record import LogStream
from repro.operations.scaling import ScaleInOperation, ScaleOutOperation


@dataclasses.dataclass
class InterferencePlan:
    """What concurrent activity a run should experience."""

    scale_in_at: float | None = None
    scale_in_by: int = 1
    random_termination_at: float | None = None
    second_team_pressure_at: float | None = None
    #: How close to the account limit the second team pushes.
    second_team_target_headroom: int = 0

    def any(self) -> bool:
        return any(
            at is not None
            for at in (self.scale_in_at, self.random_termination_at, self.second_team_pressure_at)
        )


class SecondTeam:
    """The independent team sharing the account (§V.A).

    Owns its own ASG (created via :meth:`provision`) and can scale it out
    until the shared account has only ``headroom`` instance slots left —
    starving the upgraded ASG's replacement launches.
    """

    def __init__(self, engine, cloud, seed: int = 0) -> None:
        self.engine = engine
        self.cloud = cloud
        self.api = cloud.api("second-team")
        self.client = cloud.client("second-team", latency_seed_offset=71)
        self.stream = LogStream("second-team.log")
        self._rng = random.Random(seed)
        self.asg_name = "asg-team2"
        self.provisioned = False

    def provision(self, initial_capacity: int = 2) -> None:
        """Create the second team's own stack (images, keys, ASG)."""
        if self.provisioned:
            return
        ami = self.api.register_image("team2-app", "v1")
        self.api.create_key_pair("key-team2")
        self.api.create_security_group("sg-team2")
        self.api.create_launch_configuration(
            "lc-team2", ami["ImageId"], "m1.small", "key-team2", ["sg-team2"]
        )
        self.api.create_auto_scaling_group(
            self.asg_name,
            "lc-team2",
            min_size=0,
            max_size=self.cloud.state.limits.max_instances,
            desired_capacity=initial_capacity,
        )
        self.provisioned = True

    def pressure_to_limit(self, headroom: int = 0) -> ScaleOutOperation:
        """Scale out until only ``headroom`` account slots remain."""
        if not self.provisioned:
            raise RuntimeError("second team not provisioned")
        limits = self.cloud.state.limits
        current_active = self.cloud.state.active_instance_count()
        slack = max(0, limits.max_instances - current_active - headroom)
        operation = ScaleOutOperation(
            self.engine, self.client, self.stream, self.asg_name, increment=slack
        )
        operation.start()
        return operation


class InterferenceScheduler:
    """Executes an :class:`InterferencePlan` against a running upgrade."""

    def __init__(self, engine, cloud, asg_name: str, seed: int = 0) -> None:
        self.engine = engine
        self.cloud = cloud
        self.asg_name = asg_name
        self.seed = seed
        self.stream = LogStream("interference.log")
        self.events: list[tuple[float, str]] = []
        self.scale_in_op: ScaleInOperation | None = None
        self.second_team: SecondTeam | None = None

    def schedule(self, plan: InterferencePlan, second_team: SecondTeam | None = None) -> None:
        if plan.scale_in_at is not None:
            self.engine.process(
                self._run_scale_in(plan.scale_in_at, plan.scale_in_by), name="ifr-scale-in"
            )
        if plan.random_termination_at is not None:
            self.engine.process(
                self._run_termination(plan.random_termination_at), name="ifr-termination"
            )
        if plan.second_team_pressure_at is not None and second_team is not None:
            self.second_team = second_team
            self.engine.process(
                self._run_pressure(plan.second_team_pressure_at, plan.second_team_target_headroom),
                name="ifr-pressure",
            )

    def _run_scale_in(self, at: float, by: int) -> _t.Generator:
        yield self.engine.timeout(at)
        client = self.cloud.client("ops-team", latency_seed_offset=53)
        self.scale_in_op = ScaleInOperation(
            self.engine, client, self.stream, self.asg_name, decrement=by
        )
        self.scale_in_op.start()
        self.events.append((self.engine.now, "scale-in"))

    def _run_termination(self, at: float) -> _t.Generator:
        yield self.engine.timeout(at)
        rng = random.Random(self.seed + 997)
        victim = self.cloud.injector.terminate_random_instance(self.asg_name, rng)
        if victim is not None:
            self.events.append((self.engine.now, f"random-termination:{victim}"))

    def _run_pressure(self, at: float, headroom: int) -> _t.Generator:
        yield self.engine.timeout(at)
        if self.second_team is not None:
            self.second_team.pressure_to_limit(headroom)
            self.events.append((self.engine.now, "second-team-pressure"))
