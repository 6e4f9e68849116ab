"""Tests for resource describe shapes and the error hierarchy."""

import pytest

from repro.cloud.freeze import FrozenMutationError
from repro.cloud.errors import (
    CloudError,
    DependencyViolation,
    LimitExceeded,
    MalformedRequest,
    ResourceInUse,
    ResourceNotFound,
    ServiceUnavailable,
    Throttling,
)
from repro.cloud.resources import (
    AmiImage,
    AutoScalingGroup,
    Instance,
    InstanceState,
    KeyPair,
    LaunchConfiguration,
    LoadBalancer,
    SecurityGroup,
)


class TestDescribeShapes:
    """Describe dicts carry the AWS-style keys assertions read."""

    def test_ami(self):
        doc = AmiImage("ami-1", "app", "v1").describe()
        assert doc == {"ImageId": "ami-1", "Name": "app", "Version": "v1", "State": "available"}

    def test_security_group(self):
        doc = SecurityGroup("sg-1", "web", description="d").describe()
        assert doc["GroupName"] == "web"
        assert doc["IpPermissions"] == []

    def test_key_pair(self):
        doc = KeyPair("k", "fp:1").describe()
        assert doc == {"KeyName": "k", "KeyFingerprint": "fp:1"}

    def test_launch_configuration(self):
        lc = LaunchConfiguration("lc", "ami-1", "m1.small", "k", ("sg",), created_at=5.0)
        doc = lc.describe()
        assert doc["LaunchConfigurationName"] == "lc"
        assert doc["SecurityGroups"] == ["sg"]
        assert doc["CreatedTime"] == 5.0

    def test_instance(self):
        instance = Instance("i-1", "ami-1", "m1.small", "k", ("sg",), asg_name="asg")
        doc = instance.describe()
        assert doc["State"] == {"Name": "pending"}
        assert doc["AutoScalingGroupName"] == "asg"

    def test_load_balancer(self):
        elb = LoadBalancer("elb", registered_instances=("i-1",))
        doc = elb.describe()
        assert doc["Instances"] == [{"InstanceId": "i-1"}]
        assert doc["State"] == "active"

    def test_asg(self):
        asg = AutoScalingGroup(
            "asg", "lc", 1, 8, 4, instance_ids=("i-1",), suspended_processes=frozenset({"Launch"})
        )
        doc = asg.describe()
        assert doc["DesiredCapacity"] == 4
        assert doc["SuspendedProcesses"] == ["Launch"]

    def test_describe_lists_are_copies(self):
        """A describe is frozen, so no reader can edit it or the version."""
        lc = LaunchConfiguration("lc", "ami-1", "m1.small", "k", ("sg",))
        with pytest.raises(FrozenMutationError):
            lc.describe()["SecurityGroups"].append("tampered")
        assert lc.security_groups == ("sg",)


class TestInstanceState:
    def test_active_states(self):
        assert InstanceState.PENDING.is_active()
        assert InstanceState.RUNNING.is_active()
        assert not InstanceState.TERMINATED.is_active()
        assert not InstanceState.SHUTTING_DOWN.is_active()

    def test_string_enum(self):
        assert InstanceState.RUNNING.value == "running"
        assert InstanceState("pending") is InstanceState.PENDING


class TestErrorHierarchy:
    def test_per_kind_not_found_codes(self):
        assert ResourceNotFound.of("ami", "x").code == "InvalidAMIID.NotFound"
        assert ResourceNotFound.of("instance", "x").code == "InvalidInstanceID.NotFound"
        assert ResourceNotFound.of("key_pair", "x").code == "InvalidKeyPair.NotFound"
        assert ResourceNotFound.of("auto_scaling_group", "x").code == "AutoScalingGroupNotFound"

    def test_unknown_kind_falls_back(self):
        assert ResourceNotFound.of("unicorn", "x").code == "ResourceNotFound"

    def test_retryable_flags(self):
        assert Throttling("x").retryable
        assert ServiceUnavailable("x").retryable
        assert not ResourceNotFound("x").retryable
        assert not LimitExceeded("x").retryable
        assert not MalformedRequest("x").retryable
        assert not ResourceInUse("x").retryable
        assert not DependencyViolation("x").retryable

    def test_str_includes_code(self):
        assert str(LimitExceeded("too many")) == "InstanceLimitExceeded: too many"

    def test_custom_code_override(self):
        error = CloudError("boom", code="Custom.Code")
        assert error.code == "Custom.Code"

    def test_all_are_cloud_errors(self):
        for cls in (ResourceNotFound, MalformedRequest, LimitExceeded, Throttling,
                    ServiceUnavailable, ResourceInUse, DependencyViolation):
            assert issubclass(cls, CloudError)
