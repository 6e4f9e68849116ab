"""Targeted healing: diagnose, then fix — no rollback.

The paper's introduction: tools like CloudFormation or Chef offer "only
complete rollback/opportunistic retry — if something goes wrong in the
middle of the operations", and "the default recovery is usually a
complete but equally risky rollback operation".  Root-cause diagnosis
enables the alternative: a *targeted* fix of exactly what broke, while
the upgrade keeps running.

Scenario: a concurrent team corrupts the launch configuration's AMI
mid-upgrade.  POD-Diagnosis detects the wrong-version instance, walks the
fault tree to ``lc-wrong-ami``, and the recovery engine restores the
launch configuration (idempotent, verified by re-reading the cloud) —
after which the still-running rolling upgrade finishes on the correct
version by itself.

Run:  python examples/targeted_healing.py
"""

from repro.recovery.engine import RecoveryEngine
from repro.recovery.plan import build_recovery_plan
from repro.testbed import build_testbed


def main() -> None:
    testbed = build_testbed(cluster_size=4, seed=51)
    healed = []

    def inject_then_heal():
        yield testbed.engine.timeout(40)
        rogue = testbed.cloud.api("rogue-team").register_image("rogue", "v9")["ImageId"]
        testbed.cloud.injector.change_lc_ami("lc-app-v2", rogue)
        print(f"  !! t={testbed.engine.now:.0f}: launch configuration corrupted -> {rogue}")

        while not testbed.pod.reports:
            yield testbed.engine.timeout(5)
        report = testbed.pod.reports[0]
        print(f"\n  diagnosis at t={testbed.engine.now:.0f}: {report.summary()}")

        plan = build_recovery_plan(report.root_causes, testbed.pod_config.as_repository())
        for action in plan.actions:
            print(f"  remediation [auto]: {action.action} — {action.description}")
        for advice in plan.advisory:
            print(f"  remediation [needs human]: {advice}")
        recovery = RecoveryEngine(testbed.engine, testbed.pod.recovery_client())
        result = yield from recovery.execute(plan)
        for done in result.actions:
            healed.append(f"{done.action} on {done.target}: {done.status}")
        print(f"    recovery at t={testbed.engine.now:.0f}: {result.status}")

    testbed.engine.process(inject_then_heal())
    print("rolling upgrade v1 -> v2 with mid-flight corruption and healing:")
    operation = testbed.run_upgrade()

    lc = testbed.cloud.state.get("launch_configuration", "lc-app-v2")
    versions = sorted(
        {i.image_id for i in testbed.cloud.state.running_instances("asg-dsn")}
    )
    print(f"\noperation        : {operation.status} (no rollback performed)")
    print(f"healing actions  : {healed}")
    print(f"final LC image   : {lc.image_id} (target {testbed.stack.ami_v2})")
    print(f"fleet versions   : {versions}")
    wrong = [v for v in versions if v != testbed.stack.ami_v2]
    if wrong:
        print(f"note: {len(wrong)} stray version(s) remain — instances launched while"
              " the LC was corrupted; re-running the upgrade replaces them.")


if __name__ == "__main__":
    main()
