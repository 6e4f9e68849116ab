"""Tests for the fault-injection mechanisms, driven by the fault table."""

import random
import types

import pytest

from repro.cloud.cloudtrail import MAX_DELAY
from repro.evaluation.faults import FAULTS, ROGUE

from .history import writes_since


def _stack(cloud):
    """The provisioned stack, in the names the fault rows read."""
    return types.SimpleNamespace(
        lc_v2="lc-v1", ami_v2=cloud.ami_v2, key_name="key-prod", security_group="sg-web",
        elb_name="elb-dsn",
    )


@pytest.mark.parametrize("fault", FAULTS.values(), ids=list(FAULTS))
def test_a_fault_changes_its_resource_and_reverts_where_its_row_allows(provisioned_cloud, fault):
    """Reverting restores the resource's exact view; a removal refuses."""
    cloud, stack = provisioned_cloud, _stack(provisioned_cloud)
    kind, target = fault.kind, getattr(stack, fault.stack_attr)
    before = cloud.state.latest_view(kind, target)
    record = fault.apply(cloud, stack)
    assert (record.time, record.kind, record.target) == (cloud.engine.now, kind, target)
    after = cloud.state.latest_view(kind, target)
    if fault.configuration:
        assert fault.field.read(after) != fault.field.read(before)
    elif fault.disable is None:
        assert after is None and not cloud.state.exists(kind, target)
    else:
        assert after["State"] == "unavailable"
    if fault.revertible:
        cloud.injector.revert(record)
        assert cloud.state.latest_view(kind, target) == before
        assert record.reverted_at == cloud.engine.now
    else:
        with pytest.raises(ValueError):
            cloud.injector.revert(record)
        assert record.reverted_at is None


def test_removing_a_missing_resource_changes_nothing(provisioned_cloud):
    cloud = provisioned_cloud
    cloud.injector.remove("key_pair", "key-prod")
    mark = cloud.state.write_seq()
    record = cloud.injector.remove("key_pair", "key-prod")
    assert writes_since(cloud.state, mark) == []
    assert record.original is None


def _lc(cloud):
    return cloud.state.get("launch_configuration", "lc-v1")


def _rogue_calls(cloud):
    return [call.event_name for call in cloud.api(ROGUE).calls]


class TestConfigurationFaults:
    """Each configuration row points the launch configuration at the one
    rogue value it makes, created under the rogue principal."""

    def test_ami_changed_points_at_the_rogue_release(self, provisioned_cloud):
        cloud = provisioned_cloud
        record = FAULTS["AMI_CHANGED"].apply(cloud, _stack(cloud))
        image = cloud.state.get("ami", _lc(cloud).image_id)
        assert (image.name, image.version) == ("rogue-release", "v9")
        assert record.original == {"image_id": cloud.ami_v1}
        assert _rogue_calls(cloud) == ["RegisterImage"]

    def test_keypair_wrong_creates_the_rogue_key_once(self, provisioned_cloud):
        cloud = provisioned_cloud
        FAULTS["KEYPAIR_WRONG"].apply(cloud, _stack(cloud))
        FAULTS["KEYPAIR_WRONG"].apply(cloud, _stack(cloud))
        assert _lc(cloud).key_name == "key-rogue"
        # The rogue key pair is created once, then reused.
        assert _rogue_calls(cloud) == ["CreateKeyPair"]

    def test_sg_wrong_creates_the_rogue_group_once(self, provisioned_cloud):
        cloud = provisioned_cloud
        FAULTS["SG_WRONG"].apply(cloud, _stack(cloud))
        FAULTS["SG_WRONG"].apply(cloud, _stack(cloud))
        assert _lc(cloud).security_groups == ("sg-rogue",)
        assert _rogue_calls(cloud) == ["CreateSecurityGroup"]

    def test_instance_type_changed_creates_nothing(self, provisioned_cloud):
        cloud = provisioned_cloud
        FAULTS["INSTANCE_TYPE_CHANGED"].apply(cloud, _stack(cloud))
        assert _lc(cloud).instance_type == "m1.xlarge"
        assert _rogue_calls(cloud) == []


class TestResourceFaults:
    def test_elb_unavailable_keeps_resource(self, provisioned_cloud):
        cloud = provisioned_cloud
        FAULTS["ELB_UNAVAILABLE"].apply(cloud, _stack(cloud))
        elb = cloud.state.get("load_balancer", "elb-dsn")
        assert not elb.available
        assert elb.describe()["State"] == "unavailable"


class TestRandomTermination:
    def test_injections_are_logged(self, provisioned_cloud):
        """A chaos termination is an injection nobody counts as a fault,
        yet it leaves the audit record offline analysis attributes."""
        cloud = provisioned_cloud
        began = cloud.engine.now
        victim = cloud.injector.terminate_random_instance("asg-dsn", random.Random(1))
        cloud.controller.stop()
        cloud.monitor.stop()
        cloud.engine.run(until=began + MAX_DELAY)
        records = cloud.trail.lookup_events(start=began, principal="chaos-script")
        assert [(r.event_name, r.request_parameters) for r in records] == [
            ("TerminateInstances", {"InstanceId": victim})
        ]

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


class TestTerminationPaths:
    """API-, controller- and chaos-initiated terminations share one
    ``CloudState.finish_termination``; each keeps its own write order
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
        assert writes_since(cloud.state, mark) == [("instance", victim)]
        assert cloud.state.get("instance", victim).state.value == "shutting-down"
        cloud.engine.run(until=began + 10.0)
        assert writes_since(cloud.state, mark) == [
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
        assert writes_since(cloud.state, mark) == [
            ("auto_scaling_group", "asg-dsn"),
            ("instance", victim),
        ]
        cloud.engine.run(until=began + 10.0)
        assert writes_since(cloud.state, mark) == [
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
        assert writes_since(cloud.state, mark) == [
            ("instance", victim),
            ("load_balancer", "elb-dsn"),
            ("load_balancer", "elb-extra"),
        ]
        self._assert_gone_everywhere(cloud, victim, began)
