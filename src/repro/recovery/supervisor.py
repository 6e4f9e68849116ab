"""The recovery supervisor: close the loop for one campaign run.

After an upgrade ends (completed-but-wrong or failed) and diagnosis has
quiesced, :func:`recover_run` drives the full diagnose → remediate →
verify → resume sequence on the run's own testbed:

1. merge the confirmed/undetermined causes of every diagnosis report;
2. build the :class:`~repro.recovery.plan.RecoveryPlan` (verified
   actions + human advisory) from the fix catalog;
3. execute the actions through a hardened consistent client (chaos-wrapped
   when the run is chaotic) under a hard virtual-time budget — recovery
   can *never* hang a run;
4. on verified recovery, **resume the interrupted operation** from its
   batch checkpoint on a fresh log stream (new trace id), so conformance
   checking replays the resumed trace as its own process instance;
5. classify: ``RECOVERED`` (probes green, resumed upgrade conformant,
   fleet matches the target) or ``ESCALATED`` (anything less, with the
   human-action plan attached and the exit taken named in
   ``escalation_reason``: ``budget-exhausted``, ``no-cause-diagnosed``,
   ``nothing-automatable``, ``action-failed`` or ``resume-incomplete``).

Everything runs in virtual time inside the run's own engine, so recovery
inherits the campaign's determinism and the serial ≡ parallel bit-for-bit
guarantee; MTTR (first error symptom → verified recovery) is therefore a
deterministic, gateable metric.
"""

from __future__ import annotations

import typing as _t

from repro.operations.base import COMPLETED as OP_COMPLETED, FAILED as OP_FAILED
from repro.recovery.engine import RecoveryEngine, RecoveryResult
from repro.recovery.plan import ESCALATED, RECOVERED, build_recovery_plan


def _merged_causes(reports: _t.Sequence) -> list:
    """Every distinct root cause across reports, confirmed first.

    A cause confirmed by *any* report is confirmed: later reports see the
    same world with more evidence.  Order is deterministic (report order,
    then cause order), which keeps plan construction deterministic.
    """
    by_id: dict[str, _t.Any] = {}
    for report in reports:
        for cause in report.root_causes:
            prior = by_id.get(cause.node_id)
            if prior is None or (
                cause.status == "confirmed" and prior.status != "confirmed"
            ):
                by_id[cause.node_id] = cause
    causes = list(by_id.values())
    causes.sort(key=lambda c: c.status != "confirmed")  # stable: confirmed first
    return causes


def _fleet_nonconformant(testbed) -> bool:
    """Ground-truth check: does any active instance mismatch the target?"""
    return testbed.has_wrong_instance(lambda instance: instance.state.is_active())


def recover_run(
    testbed,
    operation,
    run_id: str,
    seed: int = 0,
    budget: float = 900.0,
) -> dict | None:
    """Attempt closed-loop recovery for one finished run.

    Returns a JSON-ready recovery record (the ``RunOutcome.recovery``
    payload), or None when the run needs no recovery (operation completed,
    nothing detected, fleet conformant).  Never raises: API chaos and
    orchestration failures degrade into an ``ESCALATED`` record.
    """
    pod = testbed.pod
    engine = testbed.engine
    failed = operation.status == OP_FAILED
    fleet_bad = _fleet_nonconformant(testbed)
    causes = _merged_causes(pod.reports)
    if not causes and not failed and not fleet_bad:
        return None  # healthy run: nothing to recover

    # First error symptom: the earliest detection, else the orchestrator's
    # own failure line, else the operation's end.
    symptom_times = [d.time for d in pod.detections]
    first_symptom = min(symptom_times) if symptom_times else operation.finished_at
    detections_before = len(pod.detections)

    record: dict = {
        "status": ESCALATED,
        "escalation_reason": None,  # which ESCALATED exit was taken
        "cause_ids": [c.node_id for c in causes],
        "confirmed_causes": [c.node_id for c in causes if c.status == "confirmed"],
        "first_symptom_at": first_symptom,
        "started_at": engine.now,
        "actions": [],
        "advisory": [],
        "verified_at": None,
        "mttr": None,
        "resumed": False,
        "resume_status": None,
        "resume_trace_id": None,
        "resume_detections": 0,
        "resume_conformant": None,
        "fleet_conformant": not fleet_bad,
        "recovery_api": {},
    }

    plan = build_recovery_plan(causes, pod.assertions.envs[operation.trace_id].config)
    if not causes:
        plan.advisory.append(
            "No root cause was diagnosed for the failed operation;"
            " manual investigation required"
        )

    client = pod.recovery_client()
    recovery = RecoveryEngine(engine, client, seed=seed + 977, obs=pod.obs)
    recovery.count("runs")
    testbed.recoveries.append(recovery)
    done: list[RecoveryResult] = []

    def runner() -> _t.Generator:
        result = yield from recovery.execute(plan)
        done.append(result)

    engine.process(runner(), name=f"recovery-{run_id}")
    # Hard virtual-time budget: the "never loop forever" guarantee holds
    # even if an action's own bounds were somehow wrong.
    deadline = engine.now + budget
    while not done and engine.now < deadline:
        engine.run(until=min(engine.now + 5.0, deadline))

    if not done:
        record["escalation_reason"] = "budget-exhausted"
        record["advisory"] = list(plan.advisory) + [
            f"Recovery did not terminate within its {budget:.0f}s budget;"
            " escalate to a human operator"
        ]
        record["recovery_api"] = dict(client.counters())
        return record

    result = done[0]
    record["actions"] = [a.to_dict() for a in result.actions]
    record["advisory"] = list(result.advisory)
    record["verified_at"] = result.verified_at
    record["recovery_api"] = dict(client.counters())

    if not result.ok:
        if plan.automatable:
            record["escalation_reason"] = "action-failed"  # and compensated
        else:
            record["escalation_reason"] = "nothing-automatable" if causes else "no-cause-diagnosed"
        return record

    # Verified recovery.  Resume the interrupted operation from its batch
    # checkpoint when there is anything left to finish.
    resumed = None
    if failed or fleet_bad:
        trace_id = f"{run_id}-resume"
        record["resumed"] = True
        record["resume_trace_id"] = trace_id
        resumed = testbed.resume_upgrade(
            checkpoint=operation.checkpoint,
            trace_id=trace_id,
        )
        record["resume_status"] = resumed.status
        new_detections = pod.detections[detections_before:]
        record["resume_detections"] = len(new_detections)
        # Conformance re-runs on the resumed log stream as its own process
        # instance: the resumed trace is conformant iff it raised no new
        # conformance deviations.  (Assertion detections may still fire —
        # interference that perturbed the fleet is a true positive, not a
        # defect of the resumed trace.)
        record["resume_conformant"] = not any(
            d.kind == "conformance" and d.trace_id == trace_id for d in new_detections
        )
        recovery.count("resumes")
    record["fleet_conformant"] = not _fleet_nonconformant(testbed)
    if resumed is not None and (
        resumed.status != OP_COMPLETED
        or not record["resume_conformant"]
        or not record["fleet_conformant"]
    ):
        record["advisory"].append(
            f"Resumed operation ended {resumed.status}"
            + ("" if record["resume_conformant"] else " with a non-conformant trace")
            + "; finish the upgrade manually"
        )
        recovery.count("resume_failures")
        record["escalation_reason"] = "resume-incomplete"
        return record

    record["status"] = RECOVERED
    if first_symptom is not None and result.verified_at is not None:
        record["mttr"] = max(0.0, result.verified_at - first_symptom)
    return record
