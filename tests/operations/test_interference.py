"""Tests for scaling operations, chaos termination and interference."""

import pytest

from repro.logsys.record import LogStream
from repro.operations.interference import InterferencePlan, InterferenceScheduler, SecondTeam
from repro.operations.scaling import ScaleInOperation, ScaleOutOperation
from repro.operations.termination import RandomTerminationProcess


class TestScaling:
    def test_scale_in_reduces_desired(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation = ScaleInOperation(
            cloud.engine, cloud.client("ops"), LogStream("ops.log"), "asg-dsn", decrement=1
        )
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 60)
        assert operation.status == "completed"
        assert operation.new_desired == 3
        assert cloud.state.get("auto_scaling_group", "asg-dsn").desired_capacity == 3

    def test_scale_in_respects_min_size(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation = ScaleInOperation(
            cloud.engine, cloud.client("ops"), LogStream("ops.log"), "asg-dsn", decrement=10
        )
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 60)
        asg = cloud.state.get("auto_scaling_group", "asg-dsn")
        assert asg.desired_capacity == asg.min_size

    def test_scale_out_respects_max_size(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation = ScaleOutOperation(
            cloud.engine, cloud.client("ops"), LogStream("ops.log"), "asg-dsn", increment=99
        )
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 60)
        asg = cloud.state.get("auto_scaling_group", "asg-dsn")
        assert asg.desired_capacity == asg.max_size

    def test_missing_asg_fails_operation(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation = ScaleInOperation(
            cloud.engine, cloud.client("ops"), LogStream("ops.log"), "asg-ghost"
        )
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 60)
        assert operation.status == "failed"


class TestRandomTermination:
    def test_kills_over_time(self, provisioned_cloud):
        cloud = provisioned_cloud
        chaos = RandomTerminationProcess(
            cloud.engine, cloud.injector, "asg-dsn", mean_interval=50.0, seed=3, max_kills=2
        )
        chaos.start()
        cloud.engine.run(until=cloud.engine.now + 600)
        chaos.stop()
        assert 1 <= len(chaos.kills) <= 2

    def test_invalid_interval_rejected(self, provisioned_cloud):
        with pytest.raises(ValueError):
            RandomTerminationProcess(
                provisioned_cloud.engine, provisioned_cloud.injector, "asg", mean_interval=0
            )


class TestSecondTeam:
    def test_provision_creates_own_stack(self, provisioned_cloud):
        team = SecondTeam(provisioned_cloud.engine, provisioned_cloud, seed=1)
        team.provision(initial_capacity=2)
        assert provisioned_cloud.state.exists("auto_scaling_group", "asg-team2")

    def test_pressure_consumes_account_headroom(self, provisioned_cloud):
        cloud = provisioned_cloud
        team = SecondTeam(cloud.engine, cloud, seed=1)
        team.provision(initial_capacity=0)
        team.pressure_to_limit(headroom=0)
        cloud.engine.run(until=cloud.engine.now + 600)
        assert cloud.state.active_instance_count() >= cloud.state.limits.max_instances - 1

    def test_pressure_requires_provisioning(self, provisioned_cloud):
        team = SecondTeam(provisioned_cloud.engine, provisioned_cloud, seed=1)
        with pytest.raises(RuntimeError):
            team.pressure_to_limit()


class TestScheduler:
    def test_plan_any(self):
        assert not InterferencePlan().any()
        assert InterferencePlan(scale_in_at=1.0).any()

    def test_scheduled_scale_in_executes(self, provisioned_cloud):
        cloud = provisioned_cloud
        scheduler = InterferenceScheduler(cloud.engine, cloud, "asg-dsn", seed=1)
        scheduler.schedule(InterferencePlan(scale_in_at=30.0))
        cloud.engine.run(until=cloud.engine.now + 120)
        assert cloud.state.get("auto_scaling_group", "asg-dsn").desired_capacity == 3
        assert scheduler.events and scheduler.events[0][1] == "scale-in"

    def test_scheduled_termination_executes(self, provisioned_cloud):
        cloud = provisioned_cloud
        before = {i.instance_id for i in cloud.state.running_instances("asg-dsn")}
        scheduler = InterferenceScheduler(cloud.engine, cloud, "asg-dsn", seed=1)
        scheduler.schedule(InterferencePlan(random_termination_at=10.0))
        cloud.engine.run(until=cloud.engine.now + 30)
        after = {i.instance_id for i in cloud.state.running_instances("asg-dsn")}
        assert len(before - after) == 1

    def test_pressure_requires_second_team(self, provisioned_cloud):
        cloud = provisioned_cloud
        scheduler = InterferenceScheduler(cloud.engine, cloud, "asg-dsn", seed=1)
        scheduler.schedule(InterferencePlan(second_team_pressure_at=5.0), second_team=None)
        cloud.engine.run(until=cloud.engine.now + 30)
        assert scheduler.events == []
