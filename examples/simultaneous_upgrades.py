"""Two simultaneous rolling upgrades: the mixed-version hazard.

§V.C: "One of the most challenging faults is the ASG mixed version
error, which can be caused by two simultaneous rolling upgrades.  In a
large-scale deployment, this can happen quite easily if different
development teams push out changes independently."

Team A starts upgrading the cluster to v2; 150 seconds later Team B —
unaware of Team A — pushes v3 onto the *same* ASG.  Team B's launch
configuration overwrites Team A's, so the remaining replacements of Team
A's upgrade come up as v3: the fleet ends up with mixed versions relative
to Team A's intent.  POD-Diagnosis, watching Team A's operation, detects
the wrong-version instances and diagnoses the concurrent launch
configuration update.

Run:  python examples/simultaneous_upgrades.py
"""

import dataclasses

from repro.logsys.record import LogStream
from repro.operations.rolling_upgrade import RollingUpgradeOperation
from repro.testbed import build_testbed


def main() -> None:
    testbed = build_testbed(cluster_size=4, seed=41)
    cloud = testbed.cloud

    # Team B prepares its own release of the same application.
    ami_v3 = cloud.api("team-b").register_image("log-monitoring-app", "v3")["ImageId"]

    def team_b_push():
        yield testbed.engine.timeout(150)
        print(f"  !! team B pushes {ami_v3} onto asg-dsn (lc-app-v3)")
        stream_b = LogStream("asgard-team-b.log")
        params_b = dataclasses.replace(
            testbed.params,
            lc_name="lc-app-v3",
            target=dataclasses.replace(testbed.params.target, image_id=ami_v3),
        )
        client_b = cloud.client("asgard-team-b", latency_seed_offset=91)
        RollingUpgradeOperation(testbed.engine, client_b, stream_b, params_b, "upgrade-b").start()

    testbed.engine.process(team_b_push())

    print("team A upgrades asg-dsn to v2; team B will interfere at t+150s")
    operation = testbed.run_upgrade(trace_id="upgrade-a")

    versions = {}
    for instance in cloud.state.running_instances("asg-dsn"):
        versions.setdefault(instance.image_id, 0)
        versions[instance.image_id] += 1
    print(f"\nteam A's operation: {operation.status}")
    print(f"fleet versions    : {versions}  (team A wanted only {testbed.stack.ami_v2})")

    print(f"\nPOD-Diagnosis (watching team A) raised {len(testbed.pod.detections)} detections:")
    for detection in testbed.pod.detections[:5]:
        print(f"  t={detection.time:7.1f} {detection.detail} via {detection.cause}")

    causes = {}
    for report in testbed.pod.reports:
        for cause in report.root_causes:
            causes.setdefault(cause.node_id, cause.status)
    print("\ndiagnosed causes:")
    for node_id, status in causes.items():
        print(f"  - {node_id} ({status})")
    if "concurrent-upgrade" in causes or "lc-wrong-ami" in causes:
        print("\n=> the mixed-version hazard was detected and attributed to a"
              " concurrent launch-configuration change.")


if __name__ == "__main__":
    main()
