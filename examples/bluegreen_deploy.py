"""Blue/green deployment under POD-Diagnosis: generality in action.

§III.C: the per-operation effort (model, patterns, bindings, watchdog
calibration) is spent once per operation *type*; the fault trees and the
diagnosis machinery are shared.  This example deploys v2 as a parallel
green stack — a completely different process from the rolling upgrade —
watched by the same POD-Diagnosis service via a different
OperationProfile, and shows the same fault trees diagnosing a green-stack
provisioning failure.

Run:  python examples/bluegreen_deploy.py
"""

from repro.cloud.api import TimedCloudClient
from repro.logsys.record import LogStream
from repro.operations.bluegreen import BlueGreenOperation, BlueGreenParams, blue_green_profile
from repro.pod.config import PodConfig
from repro.pod.service import PODDiagnosis
from repro.testbed import build_testbed


def deploy(testbed, pod, trace_id):
    params = BlueGreenParams(
        blue_asg="asg-dsn",
        green_asg="asg-dsn-green",
        elb_name="elb-dsn",
        lc_name="lc-green-v2",
        target=testbed.pod_config.target,
        capacity=4,
    )
    stream = LogStream("bluegreen.log")
    pod.watch(stream, trace_id)
    client = TimedCloudClient(testbed.engine, testbed.cloud.api("deployer"))
    operation = BlueGreenOperation(testbed.engine, client, stream, params, trace_id)
    operation.start()
    testbed.engine.run(until=testbed.engine.now + 1200)
    pod.timers.stop_all()
    testbed.engine.run(until=testbed.engine.now + 60)
    pod.quiesce()
    return operation, stream


def pod_for(testbed):
    config = PodConfig(
        asg_name="asg-dsn-green",
        elb_name="elb-dsn",
        desired_capacity=4,
        target=testbed.pod_config.target,
        lc_name="lc-green-v2",
        watchdog_interval=175.0,
        operation_start=testbed.engine.now,
    )
    return PODDiagnosis(testbed.cloud, config, profile=blue_green_profile(), seed=testbed.seed)


def main() -> None:
    print("=" * 72)
    print("1. Clean blue/green deployment (v1 blue -> v2 green)")
    print("=" * 72)
    testbed = build_testbed(cluster_size=4, seed=81)
    pod = pod_for(testbed)
    operation, stream = deploy(testbed, pod, "bg-clean")
    print(f"operation : {operation.status}")
    print(f"detections: {len(pod.detections)} (expected 0)")
    print(f"fitness   : {pod.conformance.fitness_of('bg-clean'):.2f} on the blue/green model")
    print("trace:")
    for record in stream.records:
        print(f"  {record.message[:84]}")

    print()
    print("=" * 72)
    print("2. Same deployment with the security group deleted pre-launch")
    print("=" * 72)
    testbed = build_testbed(cluster_size=4, seed=82)
    pod = pod_for(testbed)

    def inject():
        yield testbed.engine.timeout(1)
        testbed.cloud.injector.make_security_group_unavailable("sg-web")
        print("  !! security group sg-web deleted")

    testbed.engine.process(inject())
    operation, _stream = deploy(testbed, pod, "bg-faulty")
    print(f"operation : {operation.status}")
    print(f"detections: {[(d.detail, d.cause) for d in pod.detections[:3]]}")
    for report in pod.reports[:1]:
        print(f"diagnosis : {report.summary()}")
    print("\n=> the same fault-tree knowledge base diagnosed a different operation.")


if __name__ == "__main__":
    main()
