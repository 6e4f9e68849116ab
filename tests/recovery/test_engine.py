"""Tests for the recovery engine: verified, idempotent, compensable."""

from repro.assertions.consistent_api import ConsistentApiClient
from repro.cloud.errors import MalformedRequest
from repro.diagnosis.report import RootCause
from repro.recovery.engine import (
    ALREADY_SATISFIED,
    BLOCKED,
    FAILED,
    MAX_ATTEMPTS,
    VERIFIED,
    RecoveryEngine,
)
from repro.recovery.plan import (
    ESCALATED,
    RECOVERED,
    RecoveryAction,
    RecoveryPlan,
    VerificationProbe,
    build_recovery_plan,
)


def confirmed(*cause_ids):
    return [RootCause(cause_id, "", "confirmed") for cause_id in cause_ids]


def drive(engine, recovery, plan, budget=600.0):
    """Run one plan to its terminal result inside the simulation."""
    done = []

    def runner():
        result = yield from recovery.execute(plan)
        done.append(result)

    engine.process(runner(), name="recovery-test")
    deadline = engine.now + budget
    while not done and engine.now < deadline:
        engine.run(until=min(engine.now + 5.0, deadline))
    assert done, "recovery did not terminate within its budget"
    return done[0]


def make_recovery(cloud, seed=3, api=None):
    client = ConsistentApiClient(cloud.engine, api or cloud.api("recovery"), seed=seed)
    return RecoveryEngine(cloud.engine, client, seed=seed)


class _CannotCreateKeyPairs:
    """The cloud API, except that creating a key pair is refused."""

    def __init__(self, api):
        self._api = api

    def __getattr__(self, name):
        return getattr(self._api, name)

    def create_key_pair(self, key_name):
        raise MalformedRequest(f"key pair {key_name!r} refused")


PARAMS = {
    "asg_name": "asg-dsn",
    "lc_name": "lc-v1",
    "elb_name": "elb-dsn",
    "N": 4,
    "expected_key_name": "key-prod",
    "expected_instance_type": "m1.small",
    "expected_security_groups": ["sg-web"],
    "expected_security_group": "sg-web",
}


class TestExecution:
    def test_heals_corrupted_launch_configuration(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        plan = build_recovery_plan(
            confirmed("wrong-ami"),
            {**PARAMS, "expected_image_id": cloud.ami_v1},
        )
        result = drive(cloud.engine, make_recovery(cloud), plan)
        assert result.status == RECOVERED and result.ok
        [action] = result.actions
        assert action.status == VERIFIED
        assert action.verified_at is not None
        assert result.verified_at == action.verified_at
        assert cloud.state.get("launch_configuration", "lc-v1").image_id == cloud.ami_v1

    def test_heals_two_wrong_fields_in_one_restore(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        cloud.injector.change_lc_key_pair("lc-v1", "key-rogue")
        plan = build_recovery_plan(
            confirmed("wrong-ami", "wrong-key-pair"),
            {**PARAMS, "expected_image_id": cloud.ami_v1},
        )
        result = drive(cloud.engine, make_recovery(cloud), plan)
        assert result.status == RECOVERED
        [action] = result.actions
        assert action.status == VERIFIED
        lc = cloud.state.get("launch_configuration", "lc-v1")
        assert (lc.image_id, lc.key_name) == (cloud.ami_v1, "key-prod")

    def test_idempotency_skips_already_satisfied_state(self, provisioned_cloud):
        """Re-executing a plan after the fix is in place mutates nothing."""
        cloud = provisioned_cloud
        plan = build_recovery_plan(
            confirmed("wrong-ami"),
            {**PARAMS, "expected_image_id": cloud.ami_v1},
        )
        image_before = cloud.state.get("launch_configuration", "lc-v1").image_id
        result = drive(cloud.engine, make_recovery(cloud), plan)
        assert result.status == RECOVERED
        [action] = result.actions
        assert action.status == ALREADY_SATISFIED
        assert action.attempts == 1
        assert cloud.state.get("launch_configuration", "lc-v1").image_id == image_before

    def test_recreates_missing_key_pair(self, provisioned_cloud):
        cloud = provisioned_cloud
        cloud.injector.make_key_pair_unavailable("key-prod")
        plan = build_recovery_plan(
            confirmed("key-pair-unavailable"),
            {**PARAMS, "expected_image_id": cloud.ami_v1},
        )
        result = drive(cloud.engine, make_recovery(cloud), plan)
        assert result.status == RECOVERED
        assert cloud.state.exists("key_pair", "key-prod")

    def test_empty_plan_escalates_with_advisory(self, provisioned_cloud):
        plan = RecoveryPlan(advisory=["call a human"])
        result = drive(provisioned_cloud.engine, make_recovery(provisioned_cloud), plan)
        assert result.status == ESCALATED and not result.ok
        assert result.advisory == ["call a human"]
        assert result.actions == []


class TestCompensation:
    def _failing_action(self):
        """An action whose mutation targets a resource that does not exist:
        every attempt raises ResourceNotFound (non-retryable), so the
        action exhausts its attempts and fails."""
        return RecoveryAction(
            action_id="restore-launch-configuration:lc-ghost",
            action="restore-launch-configuration",
            target="lc-ghost",
            description="doomed",
            api_calls=[("update_launch_configuration", ("lc-ghost",), {"image_id": "ami-1"})],
            probe=VerificationProbe(
                "describe_launch_configuration", ("lc-ghost",), {"ImageId": "ami-1"}
            ),
        )

    def test_partial_failure_compensates_and_escalates(self, provisioned_cloud):
        """Saga semantics: the applied prefix rolls back in reverse order."""
        cloud = provisioned_cloud
        create = RecoveryAction(
            action_id="recreate-security-group:sg-extra",
            action="recreate-security-group",
            target="sg-extra",
            description="recreate sg-extra",
            api_calls=[("create_security_group", ("sg-extra",), {})],
            probe=VerificationProbe("describe_security_group", ("sg-extra",)),
            undo=[("delete_security_group", ("sg-extra",), {})],
        )
        plan = RecoveryPlan(actions=[create, self._failing_action()])
        result = drive(cloud.engine, make_recovery(cloud), plan)
        assert result.status == ESCALATED
        statuses = {r.action_id: r for r in result.actions}
        assert statuses["recreate-security-group:sg-extra"].status == VERIFIED
        assert statuses["recreate-security-group:sg-extra"].compensated
        failed = statuses["restore-launch-configuration:lc-ghost"]
        assert failed.status == FAILED
        assert failed.attempts == MAX_ATTEMPTS
        # The partially-applied plan was rolled back: sg-extra is gone again.
        assert not cloud.state.exists("security_group", "sg-extra")
        # The human-action plan names the failed action.
        assert any("lc-ghost" in line for line in result.advisory)

    def test_dependent_action_blocked_by_failed_dependency(self, provisioned_cloud):
        """A recreate that fails leaves the restore waiting on it blocked."""
        cloud = provisioned_cloud
        cloud.injector.make_key_pair_unavailable("key-prod")
        cloud.injector.change_lc_key_pair("lc-v1", "key-rogue")
        plan = build_recovery_plan(
            confirmed("key-pair-unavailable", "wrong-key-pair"),
            {**PARAMS, "expected_image_id": cloud.ami_v1},
        )
        api = _CannotCreateKeyPairs(cloud.api("recovery"))
        result = drive(cloud.engine, make_recovery(cloud, api=api), plan)
        assert result.status == ESCALATED
        recreate, restore = result.actions
        assert (recreate.action, recreate.status) == ("recreate-key-pair", FAILED)
        assert (restore.action, restore.status) == ("restore-launch-configuration", BLOCKED)
        assert restore.error == "dependency failed"
        assert cloud.state.get("launch_configuration", "lc-v1").key_name == "key-rogue"

    def test_never_raises_and_terminates_under_severe_chaos(self, provisioned_cloud):
        """The chaos gate at engine granularity: a blackholed, erroring
        plane degrades recovery into ESCALATED (or a verified recovery),
        never an exception and never an unbounded loop."""
        from repro.cloud.chaos import ChaosController, get_profile

        cloud = provisioned_cloud
        cloud.injector.change_lc_ami("lc-v1", "ami-rogue")
        chaos = ChaosController(cloud.engine, get_profile("severe"), seed=13)
        client = ConsistentApiClient(
            cloud.engine, chaos.wrap(cloud.api("recovery")), seed=5
        )
        recovery = RecoveryEngine(cloud.engine, client, seed=5)
        plan = build_recovery_plan(
            confirmed("wrong-ami"),
            {**PARAMS, "expected_image_id": cloud.ami_v1},
        )
        result = drive(cloud.engine, recovery, plan, budget=900.0)
        assert result.status in (RECOVERED, ESCALATED)
        assert result.finished_at is not None
