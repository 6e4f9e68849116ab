"""Tests for the simulated cloud API."""

import os
import subprocess
import sys

import pytest

from repro.cloud.api import TimedCloudClient
from repro.cloud.errors import (
    CloudError,
    MalformedRequest,
    ResourceNotFound,
    ServiceUnavailable,
    Throttling,
)
from repro.cloud.cloudtrail import MAX_DELAY
from repro.cloud.limits import MAX_CALLS_PER_WINDOW
from repro.cloud.provider import SimulatedCloud
from repro.operations.base import Operation
from repro.sim.latency import UniformLatency


@pytest.fixture
def api(cloud):
    return cloud.api("tester")


class TestImages:
    def test_register_and_describe(self, api):
        image = api.register_image("app", "v1")
        described = api.describe_image(image["ImageId"], consistent=True)
        assert described["Version"] == "v1"
        assert described["State"] == "available"

    def test_describe_missing_raises(self, api):
        with pytest.raises(ResourceNotFound):
            api.describe_image("ami-nope", consistent=True)

    def test_deregister_makes_unavailable(self, api):
        image = api.register_image("app", "v1")
        api.deregister_image(image["ImageId"])
        with pytest.raises(ResourceNotFound):
            api.describe_image(image["ImageId"], consistent=True)


class TestSecurityGroupsAndKeys:
    def test_security_group_lifecycle(self, api):
        api.create_security_group("web", description="frontend")
        assert api.describe_security_group("web", consistent=True)["Description"] == "frontend"
        api.delete_security_group("web")
        with pytest.raises(ResourceNotFound):
            api.describe_security_group("web", consistent=True)

    def test_key_pair_lifecycle(self, api):
        created = api.create_key_pair("prod")
        assert created["KeyFingerprint"]
        api.delete_key_pair("prod")
        with pytest.raises(ResourceNotFound):
            api.describe_key_pair("prod", consistent=True)

    def test_delete_missing_key_raises(self, api):
        with pytest.raises(ResourceNotFound):
            api.delete_key_pair("ghost")

    def test_key_fingerprint_is_stable_across_interpreters(self):
        """The fingerprint reaches diagnosis evidence; it must not depend
        on the interpreter's string-hash salt."""
        script = (
            "from repro.cloud.provider import SimulatedCloud\n"
            "api = SimulatedCloud(seed=1).api('t')\n"
            "api.create_key_pair('key-prod')\n"
            "print(api.describe_key_pair('key-prod', consistent=True)['KeyFingerprint'])\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        described = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout.strip()
            for hash_seed in ("1", "2")
        ]
        assert described[0] == described[1] != ""


class TestLaunchConfigurations:
    def test_create_and_describe(self, api):
        ami = api.register_image("app", "v1")["ImageId"]
        api.create_launch_configuration("lc-1", ami, "m1.small", "k", ["sg"])
        lc = api.describe_launch_configuration("lc-1", consistent=True)
        assert lc["ImageId"] == ami
        assert lc["SecurityGroups"] == ["sg"]

    def test_duplicate_name_rejected(self, api):
        ami = api.register_image("app", "v1")["ImageId"]
        api.create_launch_configuration("lc-1", ami, "m1.small", "k", [])
        with pytest.raises(MalformedRequest):
            api.create_launch_configuration("lc-1", ami, "m1.small", "k", [])

    def test_update_unknown_field_rejected(self, api):
        ami = api.register_image("app", "v1")["ImageId"]
        api.create_launch_configuration("lc-1", ami, "m1.small", "k", [])
        with pytest.raises(MalformedRequest):
            api.update_launch_configuration("lc-1", bogus_field=1)

    def test_update_records_history(self, cloud, api):
        ami = api.register_image("app", "v1")["ImageId"]
        api.create_launch_configuration("lc-1", ami, "m1.small", "k", [])
        api.update_launch_configuration("lc-1", instance_type="m1.large")
        history = cloud.state.history("launch_configuration", "lc-1")
        assert len(history) == 2
        assert history[-1][1]["InstanceType"] == "m1.large"


class TestAutoScalingGroups:
    def _stack(self, api):
        ami = api.register_image("app", "v1")["ImageId"]
        api.create_launch_configuration("lc-1", ami, "m1.small", "k", [])
        return ami

    def test_create_validates_sizes(self, api):
        self._stack(api)
        with pytest.raises(MalformedRequest):
            api.create_auto_scaling_group("asg", "lc-1", 5, 4, 4)

    def test_create_requires_launch_configuration(self, api):
        with pytest.raises(ResourceNotFound):
            api.create_auto_scaling_group("asg", "lc-ghost", 1, 4, 2)

    def test_duplicate_asg_rejected(self, api):
        self._stack(api)
        api.create_auto_scaling_group("asg", "lc-1", 1, 4, 2)
        with pytest.raises(MalformedRequest):
            api.create_auto_scaling_group("asg", "lc-1", 1, 4, 2)

    def test_set_desired_capacity(self, api):
        self._stack(api)
        api.create_auto_scaling_group("asg", "lc-1", 1, 4, 2)
        api.set_desired_capacity("asg", 3)
        assert api.describe_auto_scaling_group("asg", consistent=True)["DesiredCapacity"] == 3

    def test_update_rejects_bad_sizes(self, api):
        self._stack(api)
        api.create_auto_scaling_group("asg", "lc-1", 1, 4, 2)
        with pytest.raises(MalformedRequest):
            api.set_desired_capacity("asg", 99)

    def test_suspend_and_resume_processes(self, api):
        self._stack(api)
        api.create_auto_scaling_group("asg", "lc-1", 1, 4, 2)
        api.suspend_processes("asg", ["Launch"])
        assert api.describe_auto_scaling_group("asg", consistent=True)["SuspendedProcesses"] == [
            "Launch"
        ]
        api.resume_processes("asg", ["Launch"])
        assert api.describe_auto_scaling_group("asg", consistent=True)["SuspendedProcesses"] == []


class TestRejectedUpdates:
    """A rejected update changes nothing: not the live resource, not its
    recorded view, not what the controller's next pass does."""

    @pytest.mark.parametrize(
        "kind, name, method, changes",
        [
            ("auto_scaling_group", "asg-dsn", "update_auto_scaling_group",
             {"desired_capacity": 9}),
            ("auto_scaling_group", "asg-dsn", "update_auto_scaling_group",
             {"desired_capacity": 6, "bogus_field": 1}),
            ("launch_configuration", "lc-v1", "update_launch_configuration",
             {"image_id": "ami-rogue", "bogus_field": 1}),
        ],
        ids=["size-check", "asg-unknown-field", "lc-unknown-field"],
    )
    def test_rejected_update_changes_nothing(self, provisioned_cloud, kind, name, method, changes):
        state = provisioned_cloud.state
        live, view = state.get(kind, name), state.latest_view(kind, name)
        writes, activities = state.write_seq(), len(state.scaling_activities)
        with pytest.raises(MalformedRequest):
            getattr(provisioned_cloud.api("tester"), method)(name, **changes)
        assert state.get(kind, name) is live
        assert state.latest_view(kind, name) is view
        assert view == state.get(kind, name).describe()
        provisioned_cloud.controller.reconcile()
        assert state.write_seq() == writes
        assert state.scaling_activities[activities:] == []


class TestElb:
    def test_register_and_health(self, cloud, api):
        api.create_load_balancer("elb-1")
        ami = api.register_image("app", "v1")["ImageId"]
        api.create_key_pair("k")
        api.create_launch_configuration("lc-1", ami, "m1.small", "k", [])
        api.create_auto_scaling_group("asg", "lc-1", 1, 4, 1, ["elb-1"])
        cloud.start()
        cloud.engine.run(until=300)
        health = api.describe_instance_health("elb-1")
        assert len(health) == 1
        assert health[0]["State"] == "InService"

    def test_unavailable_elb_rejects_registration(self, cloud, api):
        api.create_load_balancer("elb-1")
        cloud.state.write("load_balancer", "elb-1", cloud.engine.now, available=False)
        with pytest.raises(ServiceUnavailable):
            api.register_instances_with_load_balancer("elb-1", [])
        with pytest.raises(ServiceUnavailable):
            api.describe_instance_health("elb-1")

    def test_deregister_from_unavailable_elb_fails(self, cloud, api):
        api.create_load_balancer("elb-1")
        cloud.state.write("load_balancer", "elb-1", cloud.engine.now, available=False)
        with pytest.raises(ServiceUnavailable):
            api.deregister_instances_from_load_balancer("elb-1", ["i-1"])

    def test_delete_load_balancer(self, api):
        api.create_load_balancer("elb-1")
        api.delete_load_balancer("elb-1")
        with pytest.raises(ResourceNotFound):
            api.describe_load_balancer("elb-1", consistent=True)


class TestAuditing:
    def test_every_call_recorded_with_principal(self, cloud):
        api = cloud.api("alice")
        api.register_image("app", "v1")
        assert api.calls[-1].event_name == "RegisterImage"
        assert api.calls[-1].principal == "alice"

    def test_errors_recorded_with_code(self, cloud):
        api = cloud.api("alice")
        with pytest.raises(ResourceNotFound):
            api.describe_image("ami-ghost", consistent=True)
        assert api.calls[-1].error_code == "InvalidAMIID.NotFound"

    def test_calls_reach_cloudtrail(self, cloud):
        api = cloud.api("alice")
        api.register_image("app", "v1")
        cloud.engine.run(until=cloud.engine.now + MAX_DELAY)
        records = cloud.trail.lookup_events()
        assert records[-1].event_name == "RegisterImage"
        assert records[-1].principal == "alice"

    def test_throttling_when_rate_exceeded(self):
        cloud = SimulatedCloud(seed=1)
        api = cloud.api("busy")
        for index in range(MAX_CALLS_PER_WINDOW):
            api.register_image(f"app-{index}", "v1")
        with pytest.raises(Throttling):
            api.register_image("one-too-many", "v1")


class TestTimedClientCall:
    """``result = yield from client.call(...)``: one latency timeout, then
    the API body, in the caller's own frame."""

    @pytest.fixture
    def ami(self, cloud):
        return cloud.api("setup").register_image("app", "v1")["ImageId"]

    @staticmethod
    def count_steps(engine):
        """Count the events the engine pops from here on."""
        popped = [0]
        step = engine.step

        def counting_step():
            popped[0] += 1
            step()

        engine.step = counting_step
        return popped

    def test_one_engine_event_between_call_and_result(self, cloud, ami):
        client = cloud.client("tester")
        popped = self.count_steps(cloud.engine)
        seen = {}

        def caller():
            before = popped[0]
            seen["result"] = yield from client.call("describe_image", ami, consistent=True)
            seen["events"] = popped[0] - before

        cloud.engine.run(until=cloud.engine.process(caller()))
        assert seen["result"]["ImageId"] == ami
        assert seen["events"] == 1

    def test_api_body_runs_after_the_sampled_latency(self, cloud, ami):
        api = cloud.api("tester")
        client = TimedCloudClient(cloud.engine, api, latency=UniformLatency(0.05, 0.5, seed=3))
        expected = UniformLatency(0.05, 0.5, seed=3).sample()

        def caller():
            yield cloud.engine.timeout(10.0)
            yield from client.call("describe_image", ami, consistent=True)

        cloud.engine.run(until=cloud.engine.process(caller()))
        assert api.calls[-1].event_time == 10.0 + expected
        assert cloud.engine.now == 10.0 + expected

    def test_cloud_error_is_raised_at_the_yield_from(self, cloud):
        client = cloud.client("tester")
        caught = []

        def caller():
            try:
                yield from client.call("describe_instance", "i-gone", consistent=True)
            except CloudError as exc:  # rolling_upgrade's "instance is gone" arm
                caught.append(exc)
            return "carried on"

        assert cloud.engine.run(until=cloud.engine.process(caller())) == "carried on"
        assert len(caught) == 1 and isinstance(caught[0], ResourceNotFound)
        assert cloud.api("tester").calls[-1].error_code == caught[0].code

    def test_sequential_calls_finish_when_they_did_with_a_process_per_call(self, cloud, ami):
        """Virtual times pinned at ``d3aa573``, where each call was a
        ``Process`` (bootstrap + timeout + completion event)."""
        client = cloud.client("tester")
        times = []

        def caller():
            for _ in range(2):
                yield from client.call("describe_image", ami, consistent=True)
                times.append(cloud.engine.now)

        cloud.engine.run(until=cloud.engine.process(caller()))
        assert times == [0.05592131745385123, 0.11959741436010903]

    def test_interrupted_caller_abandons_its_call(self, cloud, ami):
        """The call lives in the caller's frame: closing the engine while
        the caller waits out the request's latency means the API body
        never runs."""
        api = cloud.api("tester")
        client = cloud.client("tester")
        ended = []

        def caller():
            try:
                yield from client.call("deregister_image", ami)
            finally:
                ended.append(cloud.engine.now)

        cloud.engine.process(caller())
        cloud.engine.step()  # the caller reaches the call and waits out the latency
        cloud.engine.close()
        assert ended == [0.0]
        assert api.calls == []
        assert api.describe_image(ami, consistent=True)["ImageId"] == ami

    def test_operation_call_documents_the_calling_convention(self):
        assert "yield from self.call(" in Operation.call.__doc__


class TestMemberDescribes:
    def test_members_are_the_recorded_views(self, provisioned_cloud):
        """Each member describe is the instance's latest history view (the
        one a consistent describe_instance serves), equal to its live
        describe(), through launch, boot and termination."""
        cloud = provisioned_cloud
        api = cloud.api("tester")
        states = set()

        def check() -> None:
            members = api.describe_instances_in_asg("asg-dsn")
            asg = cloud.state.get("auto_scaling_group", "asg-dsn")
            assert tuple(m["InstanceId"] for m in members) == asg.instance_ids
            for member in members:
                instance_id = member["InstanceId"]
                assert member is cloud.state.latest_view("instance", instance_id)
                assert member == cloud.state.instances[instance_id].describe()
                states.add(member["State"]["Name"])

        api.set_desired_capacity("asg-dsn", 6)
        for _ in range(120):
            cloud.engine.run(until=cloud.engine.now + 1.0)
            check()
        victim = cloud.state.get("auto_scaling_group", "asg-dsn").instance_ids[0]
        api.terminate_instance(victim)
        check()
        for _ in range(10):
            cloud.engine.run(until=cloud.engine.now + 1.0)
            check()
        assert states == {"pending", "running", "shutting-down", "terminated"}


class TestScalingActivitiesApi:
    def test_activities_filtered_by_asg_and_time(self, provisioned_cloud):
        api = provisioned_cloud.api("tester")
        all_activities = api.describe_scaling_activities("asg-dsn")
        assert all_activities, "initial fleet launch should have produced activities"
        late = api.describe_scaling_activities("asg-dsn", since=10_000.0)
        assert late == []

    def test_since_cut_equals_the_full_scan(self, provisioned_cloud):
        """Failed launches add one activity per tick; the bisect on
        ``since`` must return what filtering the whole log returns."""
        cloud = provisioned_cloud
        api = cloud.api("tester")
        api.create_auto_scaling_group("asg-other", "lc-v1", 0, 4, 1)
        cloud.injector.make_key_pair_unavailable("key-prod")
        api.set_desired_capacity("asg-dsn", 6)
        cloud.engine.run(until=cloud.engine.now + 60.0)
        log = cloud.state.scaling_activities
        assert {a.asg_name for a in log} == {"asg-dsn", "asg-other"}
        times = sorted({a.time for a in log})
        for asg_name in ("asg-dsn", "asg-other", "asg-ghost"):
            for since in [0.0, times[0], times[len(times) // 2], times[-1], times[-1] + 0.5, 1e9]:
                expected = [a for a in log if a.asg_name == asg_name and a.time >= since]
                assert api.describe_scaling_activities(asg_name, since=since) == expected

    def test_terminate_instance_in_asg_removes_member(self, provisioned_cloud):
        api = provisioned_cloud.api("tester")
        victim = provisioned_cloud.state.get("auto_scaling_group", "asg-dsn").instance_ids[0]
        api.terminate_instance_in_auto_scaling_group(victim)
        asg = provisioned_cloud.state.get("auto_scaling_group", "asg-dsn")
        assert victim not in asg.instance_ids
