"""Tests for the rolling upgrade operation and its POD artifacts."""

import pytest

from repro.logsys.record import LogStream
from repro.operations.rolling_upgrade import (
    RollingUpgradeOperation,
    RollingUpgradeParams,
    build_pattern_library,
    reference_process_model,
    standard_bindings,
)
from repro.operations.steps import (
    COMPLETED,
    DEREGISTER,
    READY,
    SEQUENCE,
    SORT,
    START,
    STATUS,
    TERMINATE,
    UPDATE_LC,
    WAIT_ASG,
)
from repro.operations.target import TargetConfig
from repro.process.compiled import CompiledReplayer


def activities(library) -> list[str]:
    """A pattern library's distinct activity names, in first-seen order."""
    return list(dict.fromkeys(pattern.activity for pattern in library.patterns))


def profile_problems(profile) -> list[str]:
    """The profile contract: where its model, patterns, watchdog and
    bindings disagree (an empty list when they agree)."""
    problems = list(profile.model.validate())
    known = set(activities(profile.library))
    for activity in (profile.watchdog_start, profile.watchdog_end, *profile.watchdog_aligns):
        if activity not in profile.model.activities:
            problems.append(f"watchdog activity {activity!r} not in the model")
    for activity in profile.model.activities:
        if activity not in known:
            problems.append(f"model activity {activity!r} has no log pattern")
    for activity, _position in profile.bindings_factory().bindings:
        if activity not in profile.model.activities:
            problems.append(f"binding references unknown activity {activity!r}")
    return problems


def launch_upgrade(cloud, batch_size=1, **param_overrides):
    stream = LogStream("asgard.log")
    params = RollingUpgradeParams(
        asg_name="asg-dsn",
        elb_name="elb-dsn",
        lc_name="lc-v2",
        target=TargetConfig(
            image_id=cloud.ami_v2,
            key_name="key-prod",
            instance_type="m1.small",
            security_groups=["sg-web"],
        ),
        desired_capacity=4,
        batch_size=batch_size,
        **param_overrides,
    )
    from repro.cloud.api import TimedCloudClient

    client = TimedCloudClient(cloud.engine, cloud.api("asgard"))
    operation = RollingUpgradeOperation(cloud.engine, client, stream, params, "t1")
    return operation, stream


class TestHappyPath:
    def test_replaces_all_instances_with_new_version(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation, _ = launch_upgrade(cloud)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 2000)
        assert operation.status == "completed"
        running = cloud.state.running_instances("asg-dsn")
        assert len(running) == 4
        assert all(i.image_id == cloud.ami_v2 for i in running)

    def test_service_level_never_below_floor(self, provisioned_cloud):
        """At least N' = N - k instances stay in service throughout."""
        cloud = provisioned_cloud
        operation, _ = launch_upgrade(cloud)
        operation.start()
        low_water = 10
        while operation.status in ("pending", "running") and cloud.engine.now < 3000:
            cloud.engine.run(until=cloud.engine.now + 5)
            elb = cloud.state.get("load_balancer", "elb-dsn")
            in_service = sum(
                1
                for iid in elb.registered_instances
                if cloud.state.exists("instance", iid)
                and cloud.state.get("instance", iid).state.value == "running"
            )
            low_water = min(low_water, in_service)
        assert operation.status == "completed"
        assert low_water >= 3

    def test_log_trace_follows_fig2(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation, stream = launch_upgrade(cloud)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 2000)
        library = build_pattern_library()
        activities = [
            library.classify(r.message).activity
            for r in stream.records
            if library.classify(r.message).matched
        ]
        assert activities[0] == START
        assert activities[1] == UPDATE_LC
        assert activities[2] == SORT
        assert activities[-1] == COMPLETED
        assert activities.count(READY) == 4
        assert activities.count(TERMINATE) == 4

    def test_real_trace_replays_on_reference_model(self, provisioned_cloud):
        """The reference model accepts the operation's real log output."""
        cloud = provisioned_cloud
        operation, stream = launch_upgrade(cloud)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 2000)
        library = build_pattern_library()
        instance = CompiledReplayer(reference_process_model()).instance_for("t1")
        for record in stream.records:
            classification = library.classify(record.message)
            if classification.matched and not classification.pattern.is_error:
                assert instance.replay(classification.activity), record.message
        assert instance.completed

    def test_batched_upgrade(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation, stream = launch_upgrade(cloud, batch_size=2)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 2000)
        assert operation.status == "completed"
        assert all(
            i.image_id == cloud.ami_v2 for i in cloud.state.running_instances("asg-dsn")
        )

    def test_debug_chatter_emitted(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation, stream = launch_upgrade(cloud)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 2000)
        assert any("DEBUG" in r.message for r in stream.records)


class TestFailurePaths:
    def test_elb_loss_fails_with_exception_line(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation, stream = launch_upgrade(cloud)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 50)
        cloud.injector.change("load_balancer", "elb-dsn", available=False)
        cloud.engine.run(until=cloud.engine.now + 2000)
        assert operation.status == "failed"
        assert any("Exception during" in r.message for r in stream.records)

    def test_stall_times_out(self, provisioned_cloud):
        cloud = provisioned_cloud
        operation, stream = launch_upgrade(cloud)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 20)
        cloud.injector.remove("ami", cloud.ami_v2)
        cloud.engine.run(until=cloud.engine.now + 2000)
        assert operation.status == "failed"
        assert any("timeout waiting" in r.message for r in stream.records)

    def test_skips_externally_terminated_instance(self, provisioned_cloud):
        import random

        cloud = provisioned_cloud
        operation, stream = launch_upgrade(cloud)
        operation.start()
        cloud.engine.run(until=cloud.engine.now + 20)
        cloud.injector.terminate_random_instance("asg-dsn", random.Random(9))
        cloud.engine.run(until=cloud.engine.now + 3000)
        assert operation.status == "completed"


class TestArtifacts:
    def test_reference_model_is_sound(self):
        assert reference_process_model().validate() == []

    def test_rolling_upgrade_profile_is_coherent(self):
        from repro.operations.profile import rolling_upgrade_profile

        assert profile_problems(rolling_upgrade_profile()) == []

    def test_patterns_cover_the_sequence(self):
        library = build_pattern_library()
        assert set(SEQUENCE) <= set(activities(library))

    def test_bindings_cover_key_steps(self):
        bindings = standard_bindings().bindings
        assert (UPDATE_LC, "end") in bindings
        assert (READY, "end") in bindings
        assert (COMPLETED, "end") in bindings
        assert "new-instance-correct-version" in bindings[(READY, "end")]

    def test_status_lines_are_progress_position(self):
        library = build_pattern_library()
        classification = library.classify("Status info: 1 of 4 instance relaunches done")
        assert classification.activity == STATUS
        assert classification.pattern.position == "progress"

    def test_exception_lines_are_known_errors(self):
        library = build_pattern_library()
        classification = library.classify("Exception during rolling upgrade of group asg-x: boom")
        assert classification.pattern.is_error
