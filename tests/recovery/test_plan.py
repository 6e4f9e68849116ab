"""Tests for the fix table and plan construction: causes → verified
actions + human advisory (execution: test_engine.py)."""

from repro.diagnosis.report import RootCause
from repro.recovery.plan import CATALOG, RESTORE, VerificationProbe, build_recovery_plan
from tests.paper.coverage import COVERAGE


PARAMS = {
    "asg_name": "asg-dsn",
    "lc_name": "lc-app-v2",
    "elb_name": "elb-dsn",
    "N": 4,
    "expected_image_id": "ami-2",
    "expected_key_name": "key-prod",
    "expected_instance_type": "m1.small",
    "expected_security_groups": ["sg-web"],
    "expected_security_group": "sg-web",
}


def confirmed(*cause_ids):
    return [RootCause(cause_id, "", "confirmed") for cause_id in cause_ids]


def undetermined(*cause_ids):
    return [RootCause(cause_id, "", "undetermined") for cause_id in cause_ids]


class TestProbe:
    def test_subset_match(self):
        probe = VerificationProbe("describe_launch_configuration", ("lc",),
                                  {"ImageId": "ami-2"})
        assert probe.satisfied_by({"ImageId": "ami-2", "KeyName": "k"})
        assert not probe.satisfied_by({"ImageId": "ami-9"})

    def test_lists_compare_order_insensitively(self):
        probe = VerificationProbe("m", (), {"SecurityGroups": ["a", "b"]})
        assert probe.satisfied_by({"SecurityGroups": ["b", "a"]})
        assert not probe.satisfied_by({"SecurityGroups": ["a"]})

    def test_missing_resource_never_satisfies(self):
        probe = VerificationProbe("m", ())
        assert not probe.satisfied_by(None)
        assert probe.satisfied_by({})  # empty expect = existence check


class TestCatalog:
    def test_catalog_covers_every_fault_tree_leaf(self):
        """Every fault-tree leaf has a catalog row or a bare row in the
        coverage table saying why not, and no such row outlives its reason.

        A new tree whose leaves silently lack rows would make the
        recovery plane escalate causes it should have fixes for — this
        closes that gap at test time.
        """
        from repro.faulttree.library import build_standard_fault_trees

        registry = build_standard_fault_trees()
        leaves = {
            leaf.node_id
            for tree_id in registry.tree_ids()
            for leaf in registry.get(tree_id).leaves()
        }
        assert leaves, "no fault-tree leaves found"
        rows = {key for key in COVERAGE if key in leaves}
        assert sorted(leaves - set(CATALOG) - rows) == [], (
            "fault-tree leaves with no catalog row: add a catalog row or (for"
            " pure evidence nodes) a COVERAGE row"
        )
        assert sorted(rows & set(CATALOG)) == [], "stale COVERAGE rows: the leaf has a catalog row"

    def test_unknown_cause_is_ignored(self):
        plan = build_recovery_plan(confirmed("mystery-cause"), PARAMS)
        assert plan.actions == [] and plan.advisory == []

    def test_missing_params_leave_the_template(self):
        """A repository lacking a key the description names: the advisory
        line is the catalog's template, unfilled."""
        plan = build_recovery_plan(undetermined("wrong-ami"), {})
        assert plan.advisory == ["Reset the launch configuration AMI to {expected_image_id}"]
        plan = build_recovery_plan(confirmed("elb-unavailable"), {"lc_name": "lc"})
        assert plan.advisory == [CATALOG["elb-unavailable"][1]]


class TestBuild:
    def test_confirmed_automatable_cause_becomes_action(self):
        plan = build_recovery_plan(confirmed("wrong-ami"), PARAMS)
        assert plan.automatable and plan.advisory == []
        [action] = plan.actions
        assert action.action == RESTORE
        assert action.action_id == "restore-launch-configuration:lc-app-v2"
        assert action.probe.expect == {"ImageId": "ami-2"}
        # Compensation writes back what the pre-check read, restored fields only.
        prior = {"ImageId": "ami-9", "KeyName": "key-prod"}
        assert action.compensation(prior) == [
            ("update_launch_configuration", ("lc-app-v2",), {"image_id": "ami-9"})
        ]
        assert action.compensation(None) == []

    def test_wrong_ami_restores_the_launch_configuration(self):
        [action] = build_recovery_plan(confirmed("wrong-ami"), PARAMS).actions
        assert action.description == "Reset the launch configuration AMI to ami-2"
        assert action.api_calls == [
            ("update_launch_configuration", ("lc-app-v2",), {"image_id": "ami-2"})
        ]

    def test_wrong_security_group_restores_the_list(self):
        [action] = build_recovery_plan(confirmed("wrong-security-group"), PARAMS).actions
        assert action.api_calls[0][2] == {"security_groups": ["sg-web"]}
        assert action.probe.expect == {"SecurityGroups": ["sg-web"]}

    def test_missing_key_pair_is_recreated(self):
        [action] = build_recovery_plan(confirmed("key-pair-unavailable"), PARAMS).actions
        assert action.action_id == "recreate-key-pair:key-prod"
        assert action.api_calls == [("create_key_pair", ("key-prod",), {})]
        assert action.probe == VerificationProbe("describe_key_pair", ("key-prod",))
        assert action.compensation(None) == [("delete_key_pair", ("key-prod",), {})]

    def test_undetermined_cause_stays_advisory(self):
        plan = build_recovery_plan(undetermined("wrong-ami"), PARAMS)
        assert not plan.actions
        assert plan.advisory == ["Reset the launch configuration AMI to ami-2"]

    def test_non_automatable_cause_stays_advisory(self):
        plan = build_recovery_plan(confirmed("elb-unavailable"), PARAMS)
        assert not plan.automatable
        assert any("elb-dsn" in line for line in plan.advisory)

    def test_elb_unavailable_is_advisory_only(self):
        plan = build_recovery_plan(confirmed("elb-unavailable"), PARAMS)
        assert plan.actions == []
        assert plan.advisory == [
            "ELB elb-dsn is unavailable — escalate to the provider; consider pausing the upgrade"
        ]

    def test_duplicate_fixes_collapse_to_one_action(self):
        """One cause named twice (a walk over two trees that both hold its
        leaf) prescribes one action."""
        plan = build_recovery_plan(confirmed("wrong-ami", "wrong-ami"), PARAMS)
        [action] = plan.actions
        assert action.action_id == "restore-launch-configuration:lc-app-v2"
        assert action.api_calls[0][2] == {"image_id": "ami-2"}
        assert plan.advisory == []

    def test_duplicates_beside_a_human_only_cause(self):
        """A report naming one fix twice and a human-only cause: one
        action and one advisory line."""
        plan = build_recovery_plan(
            confirmed("wrong-ami", "wrong-ami", "asg-scale-in"), PARAMS
        )
        assert [a.action_id for a in plan.actions] == ["restore-launch-configuration:lc-app-v2"]
        assert plan.advisory == [
            "A concurrent scale-in changed desired capacity; confirm intent"
            " with the owning team, then restore desired capacity to 4"
        ]

    def test_same_recreate_from_both_trees_is_one_action(self):
        plan = build_recovery_plan(
            confirmed("security-group-unavailable", "lc-sg-missing"), PARAMS
        )
        assert [a.action_id for a in plan.actions] == ["recreate-security-group:sg-web"]
        assert plan.advisory == []

    def test_two_wrong_fields_restore_in_one_action(self):
        """Different rows of the target table merge into the one restore of
        the launch configuration: it updates, probes and undoes both."""
        plan = build_recovery_plan(confirmed("wrong-ami", "wrong-key-pair"), PARAMS)
        [action] = plan.actions
        assert action.api_calls == [
            ("update_launch_configuration", ("lc-app-v2",),
             {"image_id": "ami-2", "key_name": "key-prod"})
        ]
        assert action.probe.expect == {"ImageId": "ami-2", "KeyName": "key-prod"}
        assert not action.probe.satisfied_by({"ImageId": "ami-2", "KeyName": "key-rogue"})
        prior = {"ImageId": "ami-9", "KeyName": "key-rogue", "InstanceType": "m1.small"}
        assert action.compensation(prior) == [
            ("update_launch_configuration", ("lc-app-v2",),
             {"image_id": "ami-9", "key_name": "key-rogue"})
        ]
        assert plan.advisory == []

    def test_unconfirmed_field_of_an_automated_restore_adds_no_advisory(self):
        plan = build_recovery_plan(
            confirmed("wrong-ami") + undetermined("wrong-key-pair"), PARAMS
        )
        [action] = plan.actions
        assert action.probe.expect == {"ImageId": "ami-2"}
        assert plan.advisory == []

    def test_restore_depends_on_recreates(self):
        """A restored LC referencing a recreated key pair waits for it."""
        plan = build_recovery_plan(
            confirmed("wrong-key-pair", "key-pair-unavailable"), PARAMS
        )
        assert [a.action for a in plan.actions] == ["recreate-key-pair", RESTORE]
        assert plan.actions[1].depends_on == ["recreate-key-pair:key-prod"]


class TestOrdering:
    def test_topological_order_is_stable(self):
        """The plan is its execution order: the recreates in cause order,
        then the one restore that depends on all of them."""
        plan = build_recovery_plan(
            confirmed("wrong-ami", "security-group-unavailable", "key-pair-unavailable"),
            PARAMS,
        )
        assert [a.action_id for a in plan.actions] == [
            "recreate-security-group:sg-web",
            "recreate-key-pair:key-prod",
            "restore-launch-configuration:lc-app-v2",
        ]
        assert plan.actions[2].depends_on == [a.action_id for a in plan.actions[:2]]


class TestApplication:
    def test_end_to_end_diagnose_then_remediate(self):
        """The full loop: fault -> detection -> diagnosis -> targeted fix
        -> the upgrade recovers (no rollback needed)."""
        from repro.recovery.engine import RecoveryEngine
        from repro.recovery.plan import RECOVERED
        from repro.testbed import build_testbed

        testbed = build_testbed(cluster_size=4, seed=131)
        healed = []

        def inject_and_heal():
            yield testbed.engine.timeout(40)
            rogue = testbed.cloud.api("rogue").register_image("r", "v9")["ImageId"]
            testbed.cloud.injector.change_lc_ami("lc-app-v2", rogue)
            # Wait for the first completed diagnosis, then remediate.
            while not testbed.pod.reports:
                yield testbed.engine.timeout(5)
            report = testbed.pod.reports[0]
            repository = testbed.params.as_repository(since=testbed.started_at)
            plan = build_recovery_plan(report.root_causes, repository)
            recovery = RecoveryEngine(testbed.engine, testbed.pod.recovery_client())
            healed.append((yield from recovery.execute(plan)))

        testbed.engine.process(inject_and_heal())
        operation = testbed.run_upgrade()
        assert operation.status == "completed"
        assert [result.status for result in healed] == [RECOVERED]
        lc = testbed.cloud.state.get("launch_configuration", "lc-app-v2")
        assert lc.image_id == testbed.stack.ami_v2
