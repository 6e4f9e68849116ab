"""Tests for remediation planning (execution: tests/recovery/)."""

from repro.diagnosis.remediation import (
    _CATALOG,
    KNOWN_UNMAPPED,
    plan_for,
    plans_for_report,
)
from repro.diagnosis.report import DiagnosisReport, RootCause


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


class TestPlanning:
    def test_wrong_ami_plan_restores_lc(self):
        plan = plan_for("lc-wrong-ami", PARAMS)
        assert plan.action == "restore-launch-configuration"
        assert plan.automatable
        assert "ami-2" in plan.description
        method, args, kwargs = plan.api_calls[0]
        assert method == "update_launch_configuration"
        assert args == ("lc-app-v2",)
        assert kwargs == {"image_id": "ami-2"}

    def test_wrong_security_group_plan(self):
        plan = plan_for("wrong-security-group", PARAMS)
        assert plan.api_calls[0][2] == {"security_groups": ["sg-web"]}

    def test_missing_key_plan_recreates(self):
        plan = plan_for("key-pair-unavailable", PARAMS)
        assert plan.action == "recreate-key-pair"
        assert plan.api_calls == [("create_key_pair", ("key-prod",), {})]

    def test_elb_plan_is_manual(self):
        plan = plan_for("elb-unavailable", PARAMS)
        assert not plan.automatable
        assert plan.api_calls == []

    def test_unknown_cause_returns_none(self):
        assert plan_for("mystery-cause", PARAMS) is None

    def test_missing_params_fall_back_to_placeholders(self):
        plan = plan_for("wrong-ami", {})
        assert "<target-ami>" in plan.description or "Reset" in plan.description

    def test_plans_for_report_deduplicates_actions(self):
        report = DiagnosisReport(
            request_id="d",
            trigger="assertion",
            trigger_detail="x",
            trace_id="t",
            step=None,
            started_at=0.0,
            root_causes=[
                RootCause("wrong-ami", "", "confirmed"),
                RootCause("lc-wrong-ami", "", "confirmed"),
                RootCause("asg-scale-in", "", "confirmed"),
            ],
        )
        plans = plans_for_report(report, PARAMS)
        assert [p.action for p in plans] == [
            "restore-launch-configuration",
            "reconcile-capacity",
        ]

    def test_dedupe_is_by_action_and_target(self):
        """Same action on *different* resources must yield distinct plans.

        Regression: the old dedupe keyed on action alone, collapsing two
        missing security groups into a single recreate of the first one.
        """
        report = DiagnosisReport(
            request_id="d",
            trigger="assertion",
            trigger_detail="x",
            trace_id="t",
            step=None,
            started_at=0.0,
            root_causes=[
                RootCause("security-group-unavailable", "", "confirmed"),
                RootCause("lc-sg-missing", "", "confirmed"),
            ],
        )
        cause_params = {"lc-sg-missing": {"expected_security_group": "sg-admin"}}
        plans = plans_for_report(report, PARAMS, cause_params=cause_params)
        assert [(p.action, p.target) for p in plans] == [
            ("recreate-security-group", "sg-web"),
            ("recreate-security-group", "sg-admin"),
        ]
        # Same action, same target: still one plan.
        same = plans_for_report(report, PARAMS)
        assert len(same) == 1

    def test_catalog_covers_every_fault_tree_leaf(self):
        """Every fault-tree leaf maps to a remediation or is known-unmapped.

        A new tree whose leaves silently lack catalog entries would make
        the recovery plane escalate causes it should have plans for —
        this closes that gap at test time.
        """
        from repro.faulttree.library import build_standard_fault_trees

        registry = build_standard_fault_trees()
        leaves = {
            leaf.node_id
            for tree_id in registry.tree_ids()
            for leaf in registry.get(tree_id).leaves()
        }
        assert leaves, "no fault-tree leaves found"
        unmapped = leaves - set(_CATALOG) - KNOWN_UNMAPPED
        assert not unmapped, (
            f"fault-tree leaves with no remediation catalog entry: {sorted(unmapped)};"
            " add a catalog entry or (for pure evidence nodes) extend KNOWN_UNMAPPED"
        )
        # KNOWN_UNMAPPED must not rot: every entry is still a real leaf
        # with no catalog entry.
        assert KNOWN_UNMAPPED <= leaves
        assert not KNOWN_UNMAPPED & set(_CATALOG)


class TestApplication:
    def test_end_to_end_diagnose_then_remediate(self):
        """The full loop: fault -> detection -> diagnosis -> targeted fix
        -> the upgrade recovers (no rollback needed)."""
        from repro.recovery.engine import RecoveryEngine
        from repro.recovery.plan import RECOVERED, build_recovery_plan
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
            plan = build_recovery_plan(report, testbed.pod_config.as_repository())
            recovery = RecoveryEngine(testbed.engine, testbed.pod.recovery_client())
            healed.append((yield from recovery.execute(plan)))

        testbed.engine.process(inject_and_heal())
        operation = testbed.run_upgrade()
        assert operation.status == "completed"
        assert [result.status for result in healed] == [RECOVERED]
        lc = testbed.cloud.state.get("launch_configuration", "lc-app-v2")
        assert lc.image_id == testbed.stack.ami_v2
