"""Tests for the Operation base class and testbed assembly."""

import pytest

from repro.cloud.api import TimedCloudClient
from repro.cloud.errors import ResourceNotFound
from repro.logsys.record import LogStream
from repro.operations.base import Operation
from repro.testbed import Testbed, build_testbed


class NoopOperation(Operation):
    def __init__(self, engine, client, stream, fail_with=None, crash=False):
        super().__init__(engine, client, stream, name="noop", trace_id="t")
        self.fail_with = fail_with
        self.crash = crash

    def run(self):
        self.log("noop starting")
        yield self.engine.timeout(1.0)
        if self.fail_with is not None:
            raise self.fail_with
        if self.crash:
            raise RuntimeError("orchestrator bug")
        self.log("noop done")


@pytest.fixture
def op_env(cloud):
    client = TimedCloudClient(cloud.engine, cloud.api("op"))
    return cloud.engine, client, LogStream("op.log")


class TestOperationLifecycle:
    def test_completes_and_tracks_duration(self, op_env):
        engine, client, stream = op_env
        operation = NoopOperation(engine, client, stream)
        operation.start()
        engine.run()
        assert operation.status == "completed"
        assert operation.duration == pytest.approx(1.0)
        assert [r.message for r in stream.records] == ["noop starting", "noop done"]

    def test_cloud_error_fails_operation_with_log(self, op_env):
        engine, client, stream = op_env
        operation = NoopOperation(engine, client, stream, fail_with=ResourceNotFound.of("ami", "x"))
        operation.start()
        engine.run()
        assert operation.status == "failed"
        assert isinstance(operation.error, ResourceNotFound)
        assert any("Exception during noop" in r.message for r in stream.records)

    def test_unexpected_exception_surfaces_as_failure(self, op_env):
        engine, client, stream = op_env
        operation = NoopOperation(engine, client, stream, crash=True)
        operation.start()
        engine.run()
        assert operation.status == "failed"
        assert any("RuntimeError" in r.message for r in stream.records)

    def test_double_start_rejected(self, op_env):
        engine, client, stream = op_env
        operation = NoopOperation(engine, client, stream)
        operation.start()
        with pytest.raises(RuntimeError):
            operation.start()

    def test_duration_none_before_finish(self, op_env):
        engine, client, stream = op_env
        operation = NoopOperation(engine, client, stream)
        assert operation.duration is None


class TestTestbed:
    def test_provisioned_stack_shape(self):
        testbed = build_testbed(cluster_size=4, seed=71)
        cloud = testbed.cloud
        assert len(cloud.state.running_instances("asg-dsn")) == 4
        assert cloud.state.exists("load_balancer", "elb-dsn")
        assert cloud.state.exists("launch_configuration", "lc-app-v1")
        assert testbed.stack.ami_v1 != testbed.stack.ami_v2

    def test_batch_size_follows_paper(self):
        assert Testbed(cluster_size=4, seed=72).params.batch_size == 1
        assert Testbed(cluster_size=20, seed=72).params.batch_size == 4

    def test_params_target_v2(self):
        testbed = build_testbed(cluster_size=4, seed=73)
        assert testbed.params.target.image_id == testbed.stack.ami_v2
        assert testbed.params.lc_name == "lc-app-v2"
        assert testbed.params.desired_capacity == 4

    def test_double_upgrade_start_rejected(self):
        testbed = build_testbed(cluster_size=4, seed=74)
        testbed.start_upgrade()
        with pytest.raises(RuntimeError):
            testbed.start_upgrade()

    def test_since_updated_at_upgrade_start(self):
        testbed = build_testbed(cluster_size=4, seed=75)
        testbed.engine.run(until=testbed.engine.now + 50)
        testbed.start_upgrade()
        assert testbed.pod.assertions.envs["upgrade-1"].config["since"] == pytest.approx(350.0)
