"""Tests for the ASG reconciliation control loop."""

import random

from repro.cloud.controller import activities_since
from repro.cloud.provider import SimulatedCloud
from repro.cloud.resources import InstanceState


def provision(cloud, desired=2, elb=True):
    api = cloud.api("setup")
    ami = api.register_image("app", "v1")["ImageId"]
    api.create_key_pair("k")
    api.create_security_group("sg")
    balancers = []
    if elb:
        api.create_load_balancer("elb-x")
        balancers = ["elb-x"]
    api.create_launch_configuration("lc-x", ami, "m1.small", "k", ["sg"])
    api.create_auto_scaling_group("asg-x", "lc-x", 0, 10, desired, balancers)
    return api, ami


def asg_activities(cloud):
    return activities_since(cloud.state.scaling_activities, "asg-x")


class TestLaunching:
    def test_converges_to_desired_capacity(self, cloud):
        provision(cloud, desired=3)
        cloud.start()
        cloud.engine.run(until=300)
        assert len(cloud.state.running_instances("asg-x")) == 3

    def test_instances_launched_from_launch_configuration(self, cloud):
        api, ami = provision(cloud, desired=1)
        cloud.start()
        cloud.engine.run(until=300)
        instance = cloud.state.running_instances("asg-x")[0]
        assert instance.image_id == ami
        assert instance.key_name == "k"
        assert instance.security_groups == ("sg",)

    def test_registers_with_elb_after_boot(self, cloud):
        provision(cloud, desired=2)
        cloud.start()
        cloud.engine.run(until=300)
        elb = cloud.state.get("load_balancer", "elb-x")
        assert len(elb.registered_instances) == 2

    def test_instance_terminated_before_registration_is_never_registered(self, cloud):
        provision(cloud, desired=1)
        cloud.start()
        while not cloud.state.running_instances("asg-x"):
            cloud.engine.step()
        # Inside the ELB_REGISTER_DELAY window after boot.
        victim = cloud.injector.terminate_random_instance("asg-x", random.Random(0))
        cloud.engine.run(until=cloud.engine.now + 60.0)
        assert cloud.state.get("instance", victim).state is InstanceState.TERMINATED
        assert victim not in cloud.state.get("load_balancer", "elb-x").registered_instances
        health = cloud.api("tester").describe_instance_health("elb-x")
        assert victim not in {entry["InstanceId"] for entry in health}

    def test_launch_activities_recorded(self, cloud):
        provision(cloud, desired=1)
        cloud.start()
        cloud.engine.run(until=300)
        statuses = [a.status for a in asg_activities(cloud)]
        assert "InProgress" in statuses
        assert "Successful" in statuses


class TestScaleInAndReplacement:
    def test_scale_in_terminates_oldest(self, cloud):
        api, _ = provision(cloud, desired=3)
        cloud.start()
        cloud.engine.run(until=300)
        oldest = min(
            cloud.state.running_instances("asg-x"), key=lambda i: (i.launch_time, i.instance_id)
        )
        api.set_desired_capacity("asg-x", 2)
        cloud.engine.run(until=400)
        survivors = [i.instance_id for i in cloud.state.running_instances("asg-x")]
        assert len(survivors) == 2
        assert oldest.instance_id not in survivors

    def test_scale_in_records_activity(self, cloud):
        api, _ = provision(cloud, desired=2)
        cloud.start()
        cloud.engine.run(until=300)
        api.set_desired_capacity("asg-x", 1)
        cloud.engine.run(until=400)
        terminations = [a for a in asg_activities(cloud) if a.activity == "Terminate"]
        assert terminations and "scale-in" in terminations[0].description

    def test_replaces_terminated_instance(self, cloud):
        api, _ = provision(cloud, desired=2)
        cloud.start()
        cloud.engine.run(until=300)
        victim = cloud.state.running_instances("asg-x")[0]
        api.terminate_instance(victim.instance_id)
        cloud.engine.run(until=600)
        running = cloud.state.running_instances("asg-x")
        assert len(running) == 2
        assert victim.instance_id not in [i.instance_id for i in running]

    def test_replaces_unhealthy_instance(self, cloud):
        provision(cloud, desired=2)
        cloud.start()
        cloud.engine.run(until=300)
        sick = cloud.state.running_instances("asg-x")[0]
        cloud.state.write("instance", sick.instance_id, cloud.engine.now, healthy=False)
        cloud.engine.run(until=600)
        running = cloud.state.running_instances("asg-x")
        assert len(running) == 2
        assert sick.instance_id not in [i.instance_id for i in running]


class TestLaunchFailures:
    def test_missing_ami_fails_launch_with_code(self, cloud):
        provision(cloud, desired=1)
        cloud.injector.make_ami_unavailable(cloud.state.get("launch_configuration", "lc-x").image_id)
        cloud.start()
        cloud.engine.run(until=100)
        failed = [a for a in asg_activities(cloud) if a.status == "Failed"]
        assert failed
        assert failed[0].error_code == "InvalidAMIID.NotFound"
        assert cloud.state.running_instances("asg-x") == []

    def test_missing_key_fails_launch(self, cloud):
        provision(cloud, desired=1)
        cloud.injector.make_key_pair_unavailable("k")
        cloud.start()
        cloud.engine.run(until=100)
        failed = [a for a in asg_activities(cloud) if a.status == "Failed"]
        assert failed and failed[0].error_code == "InvalidKeyPair.NotFound"

    def test_missing_security_group_fails_launch(self, cloud):
        provision(cloud, desired=1)
        cloud.injector.make_security_group_unavailable("sg")
        cloud.start()
        cloud.engine.run(until=100)
        failed = [a for a in asg_activities(cloud) if a.status == "Failed"]
        assert failed and failed[0].error_code == "InvalidGroup.NotFound"

    def test_account_limit_fails_launch(self):
        from repro.cloud.limits import AccountLimits

        cloud = SimulatedCloud(seed=7, limits=AccountLimits(max_instances=1))
        provision(cloud, desired=3, elb=False)
        cloud.start()
        cloud.engine.run(until=300)
        failed = [a for a in asg_activities(cloud) if a.status == "Failed"]
        assert failed and failed[-1].error_code == "InstanceLimitExceeded"
        assert len(cloud.state.running_instances("asg-x")) == 1

    def test_unavailable_elb_fails_registration_not_launch(self, cloud):
        provision(cloud, desired=1)
        cloud.injector.make_elb_unavailable("elb-x")
        cloud.start()
        cloud.engine.run(until=300)
        running = cloud.state.running_instances("asg-x")
        assert len(running) == 1  # the instance launched fine
        failed = [a for a in asg_activities(cloud) if a.status == "Failed"]
        assert failed and "load balancer" in failed[0].description

    def test_suspended_launch_process_stops_launches(self, cloud):
        api, _ = provision(cloud, desired=2)
        api.suspend_processes("asg-x", ["Launch"])
        cloud.start()
        cloud.engine.run(until=300)
        assert cloud.state.running_instances("asg-x") == []

    def test_retries_once_resource_restored(self, cloud):
        provision(cloud, desired=1)
        record = cloud.injector.make_elb_unavailable("elb-x")
        cloud.start()
        cloud.engine.run(until=200)
        cloud.injector.revert(record)
        cloud.engine.run(until=600)
        assert len(cloud.state.running_instances("asg-x")) == 1


class TestControllerGuards:
    def test_start_is_idempotent(self, cloud):
        provision(cloud, desired=1)
        cloud.controller.start()
        cloud.controller.start()
        cloud.engine.run(until=200)
        assert len(cloud.state.running_instances("asg-x")) == 1

    def test_terminated_state_reached_after_shutdown(self, cloud):
        api, _ = provision(cloud, desired=1, elb=False)
        cloud.start()
        cloud.engine.run(until=200)
        instance = cloud.state.running_instances("asg-x")[0]
        api.set_desired_capacity("asg-x", 0)
        cloud.engine.run(until=300)
        assert cloud.state.get("instance", instance.instance_id).state == InstanceState.TERMINATED
