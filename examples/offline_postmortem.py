"""Offline post-mortem: answering what online diagnosis could not.

§VI of the paper lists two online blind spots: random terminations cannot
be attributed (CloudTrail delivers records up to 15 minutes late) and
transient faults vanish before on-demand tests run.  Both are answerable
after the fact.  This example:

1. runs an upgrade disturbed by a random termination — online diagnosis
   stops at ``instance-terminated-externally (undetermined)``;
2. waits out CloudTrail's delivery delay and diagnoses again over the
   same fault trees: the same walk now names the termination's author;
3. demonstrates the transient-change post-mortem: a configuration flap
   the 30-second monitor crawl missed is recovered from the write
   history;
4. prints the merged per-trace timeline from central log storage.

Run:  python examples/offline_postmortem.py
"""

from repro.diagnosis.offline import transient_changes
from repro.operations.interference import InterferencePlan, InterferenceScheduler
from repro.testbed import build_testbed


def main() -> None:
    testbed = build_testbed(cluster_size=4, seed=61)
    engine, pod = testbed.engine, testbed.pod
    scheduler = InterferenceScheduler(engine, testbed.cloud, "asg-dsn", seed=61)
    scheduler.schedule(InterferencePlan(random_termination_at=110.0))
    testbed.run_upgrade()

    print("online diagnosis verdicts:")
    for report in pod.reports:
        print(f"  {report.summary()}")

    print("\npost-mortem, once CloudTrail has delivered:")
    held = [r for r in pod.reports if any(c.status == "undetermined" for c in r.root_causes)]
    engine.run(until=engine.now + testbed.cloud.trail.max_delay)
    online = len(pod.reports)
    for report in held:
        pod.diagnosis.diagnose(report.tree_ids, trigger_detail=f"post-mortem of {report.request_id}")
    engine.run(until=engine.now + 120)
    for report in pod.reports[online:]:
        print(f"  {report.summary()}")
        for test in report.tests:
            if test.node_id == "termination-author" and test.verdict == "confirmed":
                print(f"    terminated by {', '.join(test.evidence['principals'])}")

    print("\ntransient-change post-mortem (flap shorter than the monitor crawl):")
    flap_start = engine.now
    record = testbed.cloud.injector.change_lc_ami("lc-app-v2", "ami-flap")
    engine.run(until=engine.now + 4)
    testbed.cloud.injector.revert(record)
    for flap in transient_changes(testbed.cloud.state, "launch_configuration", "lc-app-v2", since=flap_start):
        print(
            f"  changed at t={flap['changed_at']:.0f}, reverted {flap['duration']:.0f}s later"
            f" (transient AMI: {flap['transient_value']['ImageId']})"
        )

    print("\nmerged timeline (first 12 events):")
    for record in pod.storage.by_trace("upgrade-1")[:12]:
        print(f"  t={record.time:8.1f} [{record.type:11s}] {record.message[:80]}")


if __name__ == "__main__":
    main()
