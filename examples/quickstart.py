"""Quickstart: watch a rolling upgrade, inject a fault, read the diagnosis.

Builds the simulated AWS testbed (4-instance ASG behind an ELB), attaches
POD-Diagnosis to the operation log, runs one clean rolling upgrade, then a
second run with a wrong-AMI fault injected mid-flight — and prints the
detection and root-cause diagnosis exactly as the paper's §III.B.4 log
excerpt shows.

Run:  python examples/quickstart.py
"""

from repro import build_testbed
from repro.evaluation.faults import FaultPlan, schedule_fault


def clean_run() -> None:
    print("=" * 72)
    print("1. Clean rolling upgrade (v1 -> v2), POD-Diagnosis watching")
    print("=" * 72)
    testbed = build_testbed(cluster_size=4, seed=1)
    operation = testbed.run_upgrade()

    print(f"\noperation status : {operation.status} in {operation.duration:.0f}s (virtual)")
    print(f"detections       : {len(testbed.pod.detections)} (expected: 0)")
    print(f"trace fitness    : {testbed.pod.conformance.fitness_of('upgrade-1'):.2f}")
    print(f"assertions run   : {len(testbed.pod.assertions.results)}, all passed")
    print("\noperation log (first 8 lines):")
    for record in testbed.stream.records[:8]:
        print(f"  [{record.timestamp}] {record.message}")


def faulty_run() -> None:
    print()
    print("=" * 72)
    print("2. Same upgrade with a wrong-AMI fault injected at t+40s")
    print("=" * 72)
    testbed = build_testbed(cluster_size=4, seed=2)
    fault = schedule_fault(testbed, FaultPlan(fault_type="AMI_CHANGED", inject_at=40.0))
    testbed.run_upgrade()
    rogue = testbed.cloud.state.get("launch_configuration", "lc-app-v2").image_id
    print(f"  !! fault injected at t={fault.record.time:.0f}:"
          f" launch configuration points at {rogue}")

    print(f"\ndetections ({len(testbed.pod.detections)}):")
    for detection in testbed.pod.detections[:4]:
        print(
            f"  t={detection.time:7.1f}  {detection.kind:11s} {detection.detail}"
            f" (trigger: {detection.cause}, step: {detection.step})"
        )

    report = testbed.pod.reports[0]
    print(f"\nfirst diagnosis ({report.duration:.2f}s virtual):")
    print(f"  trigger : {report.trigger_detail} at step {report.step}")
    print(f"  checked : {len(report.tests)} diagnostic tests,"
          f" {report.excluded_count} fault(s) excluded")
    for cause in report.root_causes:
        print(f"  root cause -> {cause.node_id} ({cause.status}): {cause.description}")

    print("\ndiagnosis log (paper-style):")
    for record in testbed.pod.storage.query(type="diagnosis")[:10]:
        print(f"  {record.message}")


if __name__ == "__main__":
    clean_run()
    faulty_run()
