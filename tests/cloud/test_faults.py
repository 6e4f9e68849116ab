"""Tests for the fault-injection hooks."""

import random

import pytest


class TestConfigurationFaults:
    def test_change_lc_ami(self, provisioned_cloud):
        cloud = provisioned_cloud
        record = cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        assert cloud.state.get("launch_configuration", "lc-v1").image_id == "ami-rogue"
        assert record.fault_type == "AMI_CHANGED"
        assert record.details["original"] == cloud.ami_v1

    def test_change_lc_key_pair(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.change_lc_key_pair("lc-v1", "key-rogue")
        assert cloud.state.get("launch_configuration", "lc-v1").key_name == "key-rogue"

    def test_change_lc_security_group(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.change_lc_security_group("lc-v1", "sg-rogue")
        assert cloud.state.get("launch_configuration", "lc-v1").security_groups == ("sg-rogue",)

    def test_change_lc_instance_type(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.change_lc_instance_type("lc-v1", "m1.xlarge")
        assert cloud.state.get("launch_configuration", "lc-v1").instance_type == "m1.xlarge"


class TestResourceFaults:
    def test_ami_unavailable(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.make_ami_unavailable(cloud.ami_v1)
        assert not cloud.state.exists("ami", cloud.ami_v1)

    def test_key_pair_unavailable(self, provisioned_cloud):
        provisioned_cloud.injector.make_key_pair_unavailable("key-prod")
        assert not provisioned_cloud.state.exists("key_pair", "key-prod")

    def test_security_group_unavailable(self, provisioned_cloud):
        provisioned_cloud.injector.make_security_group_unavailable("sg-web")
        assert not provisioned_cloud.state.exists("security_group", "sg-web")

    def test_elb_unavailable_keeps_resource(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.make_elb_unavailable("elb-dsn")
        elb = cloud.state.get("load_balancer", "elb-dsn")
        assert not elb.available
        assert elb.describe()["State"] == "unavailable"


class TestReverts:
    def test_revert_lc_ami(self, provisioned_cloud):
        cloud = provisioned_cloud
        record = cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        cloud.injector.revert(record)
        assert cloud.state.get("launch_configuration", "lc-v1").image_id == cloud.ami_v1
        assert record.reverted_at is not None

    def test_revert_elb(self, provisioned_cloud):
        cloud = provisioned_cloud
        record = cloud.injector.make_elb_unavailable("elb-dsn")
        cloud.injector.revert(record)
        assert cloud.state.get("load_balancer", "elb-dsn").available

    def test_revert_unsupported_fault_rejected(self, provisioned_cloud):
        cloud = provisioned_cloud
        record = cloud.injector.make_ami_unavailable(cloud.ami_v1)
        with pytest.raises(ValueError):
            cloud.injector.revert(record)


class TestRandomTermination:
    def test_kills_a_running_member(self, provisioned_cloud):
        cloud = provisioned_cloud
        before = {i.instance_id for i in cloud.state.running_instances("asg-dsn")}
        victim = cloud.injector.terminate_random_instance("asg-dsn", random.Random(1))
        assert victim in before
        assert cloud.state.get("instance", victim).state.value == "terminated"

    def test_victim_deregistered_from_elb(self, provisioned_cloud):
        cloud = provisioned_cloud
        victim = cloud.injector.terminate_random_instance("asg-dsn", random.Random(1))
        elb = cloud.state.get("load_balancer", "elb-dsn")
        assert victim not in elb.registered_instances

    def test_no_candidates_returns_none(self, cloud):
        assert cloud.injector.terminate_random_instance("asg-ghost", random.Random(1)) is None

    def test_injections_are_logged(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.change_lc_ami("lc-v1", "x")
        cloud.injector.make_elb_unavailable("elb-dsn")
        types = [r.fault_type for r in cloud.injector.injections]
        assert types == ["AMI_CHANGED", "ELB_UNAVAILABLE"]


class TestTerminationPaths:
    """API-, controller- and chaos-initiated terminations share one
    ``CloudState.finish_termination``; each keeps its own write-log shape
    and all of them leave every ELB without the victim."""

    @staticmethod
    def _setup(cloud):
        # A second balancer that also holds the victim: both must drop it.
        cloud.api("setup").create_load_balancer("elb-extra")
        cloud.controller.stop()
        cloud.monitor.stop()
        cloud.engine.run(until=cloud.engine.now + 60.0)
        victim = cloud.state.auto_scaling_groups["asg-dsn"].instance_ids[0]
        cloud.state.write("load_balancer", "elb-extra", cloud.engine.now, registered_instances=(victim,))
        return victim, cloud.state.write_seq()

    @staticmethod
    def _assert_gone_everywhere(cloud, victim, terminate_time):
        instance = cloud.state.get("instance", victim)
        assert instance.state.value == "terminated"
        assert instance.terminate_time == terminate_time
        assert cloud.state.latest_view("instance", victim)["State"] == {"Name": "terminated"}
        for elb in cloud.state.load_balancers.values():
            assert victim not in elb.registered_instances
            assert {"InstanceId": victim} not in cloud.state.latest_view(
                "load_balancer", elb.name
            )["Instances"]

    def test_api_initiated(self, provisioned_cloud):
        cloud = provisioned_cloud
        victim, mark = self._setup(cloud)
        began = cloud.engine.now
        cloud.api("ops").terminate_instance(victim)
        assert cloud.state.writes_since(mark) == [("instance", victim)]
        assert cloud.state.get("instance", victim).state.value == "shutting-down"
        cloud.engine.run(until=began + 10.0)
        assert cloud.state.writes_since(mark) == [
            ("instance", victim),
            ("instance", victim),
            ("load_balancer", "elb-dsn"),
            ("load_balancer", "elb-extra"),
        ]
        assert cloud.state.history("load_balancer", "elb-extra")[-1][0] == began + 4.0
        self._assert_gone_everywhere(cloud, victim, began)

    def test_controller_initiated(self, provisioned_cloud):
        cloud = provisioned_cloud
        victim, _ = self._setup(cloud)
        began = cloud.engine.now
        # One member fewer wanted: the pass replaces nothing, so the log
        # below is the termination alone.
        wanted = cloud.state.auto_scaling_groups["asg-dsn"].desired_capacity - 1
        cloud.state.write("auto_scaling_group", "asg-dsn", began, desired_capacity=wanted)
        cloud.state.write("instance", victim, began, healthy=False)
        mark = cloud.state.write_seq()
        cloud.controller.reconcile()
        assert cloud.state.writes_since(mark) == [
            ("auto_scaling_group", "asg-dsn"),
            ("instance", victim),
        ]
        cloud.engine.run(until=began + 10.0)
        assert cloud.state.writes_since(mark) == [
            ("auto_scaling_group", "asg-dsn"),
            ("instance", victim),
            ("instance", victim),
            ("load_balancer", "elb-dsn"),
            ("load_balancer", "elb-extra"),
        ]
        assert victim not in cloud.state.auto_scaling_groups["asg-dsn"].instance_ids
        self._assert_gone_everywhere(cloud, victim, began)

    def test_chaos_script_initiated(self, provisioned_cloud):
        cloud = provisioned_cloud
        victim, mark = self._setup(cloud)
        began = cloud.engine.now

        class PickVictim:
            def choice(self, candidates):
                return next(c for c in candidates if c.instance_id == victim)

        assert cloud.injector.terminate_random_instance("asg-dsn", PickVictim()) == victim
        # Immediate, and a single instance write: no shutting-down phase.
        assert cloud.state.writes_since(mark) == [
            ("instance", victim),
            ("load_balancer", "elb-dsn"),
            ("load_balancer", "elb-extra"),
        ]
        self._assert_gone_everywhere(cloud, victim, began)
        assert cloud.injector.injections[-1].fault_type == "RANDOM_TERMINATION"
