"""Targeted healing: diagnose, then fix — no rollback.

The paper's introduction: tools like CloudFormation or Chef offer "only
complete rollback/opportunistic retry — if something goes wrong in the
middle of the operations", and "the default recovery is usually a
complete but equally risky rollback operation".  Root-cause diagnosis
enables the alternative: a *targeted* fix of exactly what broke, while
the upgrade keeps running.

Scenario: a concurrent team corrupts the launch configuration's AMI
mid-upgrade.  POD-Diagnosis detects the wrong-version instance, walks the
fault tree to ``wrong-ami``, and the recovery engine restores the
launch configuration (idempotent, verified by re-reading the cloud) —
after which the still-running rolling upgrade finishes on the correct
version by itself.  The healing's spans are read from the run's records
afterwards: the run needed no tracing switched on.

Run:  python examples/targeted_healing.py
"""

from repro.obs import run_trace
from repro.obs.export import render_span_tree
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

        repository = testbed.params.as_repository(since=testbed.started_at)
        plan = build_recovery_plan(report.root_causes, repository)
        for action in plan.actions:
            print(f"  remediation [auto]: {action.action} — {action.description}")
        for advice in plan.advisory:
            print(f"  remediation [needs human]: {advice}")
        recovery = RecoveryEngine(testbed.engine, testbed.pod.recovery_client())
        testbed.recoveries.append(recovery)
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
    healing = [span for span in run_trace(testbed) if span.stage == "recovery"]
    print(render_span_tree(healing, title="healing trace:"))
    wrong = [v for v in versions if v != testbed.stack.ami_v2]
    if wrong:
        print(f"note: {len(wrong)} stray version(s) remain — instances launched while"
              " the LC was corrupted; re-running the upgrade replaces them.")


if __name__ == "__main__":
    main()
