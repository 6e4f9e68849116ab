"""Campaign-level recovery regressions (the ``make recover`` gate).

Seeded recover-enabled campaigns over all 8 fault types: confirmed
automatable causes end RECOVERED with probes green and the resumed
upgrade conformant; non-automatable causes end ESCALATED with a human
advisory; the whole loop is deterministic (serial ≡ parallel bit-for-bit)
and survives severe API chaos without a single crashed run.
"""

import dataclasses
import inspect
import types

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.faults import FAULT_TYPES, FaultPlan, schedule_fault
from repro.evaluation.metrics import compute_metrics
from repro.evaluation.reporting import render_markdown
from repro.evaluation.parallel import execute_run
from repro.operations.base import COMPLETED as OP_COMPLETED, FAILED as OP_FAILED
from repro.pod.service import QUIESCE_LIMIT
from repro.recovery import ESCALATED, RECOVERED, recover_run
from repro.testbed import RESUME_HORIZON, SETTLE_TIME, build_testbed

pytestmark = pytest.mark.recovery

#: Fault types whose confirmed causes the fix catalog automates.
AUTOMATABLE = {
    "AMI_CHANGED",
    "KEYPAIR_WRONG",
    "SG_WRONG",
    "INSTANCE_TYPE_CHANGED",
    "KEYPAIR_UNAVAILABLE",
    "SG_UNAVAILABLE",
}
#: restore-image / escalate-elb are deliberately human-only.
NON_AUTOMATABLE = {"AMI_UNAVAILABLE", "ELB_UNAVAILABLE"}


def run_campaign(seed=77, chaos="none", max_workers=None):
    config = CampaignConfig(
        runs_per_fault=1,
        large_cluster_runs=0,
        seed=seed,
        chaos_profile=chaos,
        recover=True,
    )
    campaign = Campaign(config)
    campaign.run(max_workers=max_workers)
    return campaign.outcomes


class TestTerminalClasses:
    @pytest.fixture(scope="class")
    def outcomes(self, pool_spy):
        with pool_spy.expect(4):
            return run_campaign(seed=77, max_workers=4)

    def test_every_run_reaches_a_terminal_class(self, outcomes):
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert not outcome.failed, outcome.error
            assert outcome.recovery is not None
            assert outcome.recovery["status"] in (RECOVERED, ESCALATED)

    def test_automatable_faults_recover(self, outcomes):
        for outcome in outcomes:
            if outcome.spec.fault_type not in AUTOMATABLE:
                continue
            rec = outcome.recovery
            assert rec["status"] == RECOVERED, (outcome.spec.run_id, rec)
            # Probes green: every executed action verified.
            assert rec["actions"], outcome.spec.run_id
            assert all(
                a["status"] in ("verified", "already-satisfied")
                for a in rec["actions"]
            )
            assert rec["verified_at"] is not None
            assert rec["mttr"] is not None and rec["mttr"] >= 0
            # The healed fleet matches the target configuration.
            assert rec["fleet_conformant"], outcome.spec.run_id
            # A resumed upgrade (if one was needed) completed and its
            # fresh trace replayed conformantly.  (Assertion detections
            # may still fire for interference that perturbed the fleet.)
            if rec["resumed"]:
                assert rec["resume_status"] == "completed"
                assert rec["resume_conformant"] is True

    def test_non_automatable_faults_escalate_with_advisory(self, outcomes):
        for outcome in outcomes:
            if outcome.spec.fault_type not in NON_AUTOMATABLE:
                continue
            rec = outcome.recovery
            assert rec["status"] == ESCALATED, (outcome.spec.run_id, rec)
            assert rec["advisory"], outcome.spec.run_id
            # Both confirm their cause (ami-unavailable / elb-unavailable);
            # the catalog has only human-action plans for it (ROADMAP 1(d)).
            assert rec["escalation_reason"] == "nothing-automatable", outcome.spec.run_id
            assert not rec["actions"]

    def test_only_an_escalated_run_names_a_reason(self, outcomes):
        for outcome in outcomes:
            rec = outcome.recovery
            assert (rec["escalation_reason"] is None) == (rec["status"] == RECOVERED)
        report = render_markdown(outcomes, compute_metrics(outcomes))
        assert report.count("| ESCALATED | nothing-automatable |") == len(NON_AUTOMATABLE)
        assert report.count("| RECOVERED | - |") == len(AUTOMATABLE)

    def test_metrics_aggregate_recovery(self, outcomes):
        metrics = compute_metrics(outcomes)
        assert metrics.recovery_attempted == 8
        assert metrics.recovered_runs == len(AUTOMATABLE)
        assert metrics.escalated_runs == len(NON_AUTOMATABLE)
        assert metrics.recovery_success_rate == pytest.approx(0.75)
        assert len(metrics.mttr_values) == metrics.recovered_runs
        stats = metrics.mttr_stats()
        assert 0 < stats["mean"] <= stats["max"]
        # Virtual-clock seconds of this seeded campaign: a remediation
        # that gets slower to verify moves it on any host.
        assert stats["mean"] == pytest.approx(350.3162, abs=1e-3)


class TestEscalationReason:
    """One case per ESCALATED exit of ``recover_run`` that the seeded
    campaign above does not take."""

    def finished(self, fault_type, seed=11):
        testbed = build_testbed(cluster_size=4, seed=seed)
        schedule_fault(testbed, FaultPlan(fault_type=fault_type, inject_at=40.0))
        return testbed, testbed.run_upgrade(trace_id="run")

    def test_budget_exhausted(self):
        testbed, operation = self.finished("KEYPAIR_UNAVAILABLE")
        rec = recover_run(testbed, operation, run_id="run", budget=0.0)
        assert (rec["status"], rec["escalation_reason"]) == (ESCALATED, "budget-exhausted")

    def test_no_cause_diagnosed(self):
        """An operation that failed with nothing detected: no plan at all."""
        testbed = build_testbed(cluster_size=4, seed=11)
        testbed.run_upgrade(trace_id="run")
        assert not testbed.pod.reports
        failed = types.SimpleNamespace(
            status=OP_FAILED, finished_at=testbed.engine.now, trace_id="run"
        )
        rec = recover_run(testbed, failed, run_id="run")
        assert (rec["status"], rec["escalation_reason"]) == (ESCALATED, "no-cause-diagnosed")
        assert rec["cause_ids"] == [] and rec["advisory"]

    def test_action_failed(self):
        """The launch configuration to restore is gone: every attempt fails."""
        testbed, operation = self.finished("AMI_CHANGED")
        testbed.cloud.state.delete("launch_configuration", testbed.stack.lc_v2, testbed.engine.now)
        rec = recover_run(testbed, operation, run_id="run")
        assert (rec["status"], rec["escalation_reason"]) == (ESCALATED, "action-failed")
        assert [a["status"] for a in rec["actions"]] == ["failed"]

    def test_resume_incomplete(self):
        """Healed, but the resumed upgrade cannot finish: the ELB went away
        after diagnosis, so no report (and no action) covers it."""
        testbed, operation = self.finished("AMI_CHANGED")
        testbed.cloud.injector.make_elb_unavailable(testbed.stack.elb_name)
        rec = recover_run(testbed, operation, run_id="run")
        assert (rec["status"], rec["escalation_reason"]) == (ESCALATED, "resume-incomplete")
        assert [a["status"] for a in rec["actions"]] == ["verified"]
        assert rec["resumed"] and rec["resume_status"] == OP_FAILED


class TestResumedAfterAPromptVerify:
    """Two runs of the ``campaign_degraded`` shape (12 runs per fault, 4
    instances, severe chaos, recover) at seed 2014001: each heals and its
    resumed upgrade completes.  When describes could answer with a
    lagging version, the fix's verify probe waited out stale reads (6.0
    and 5.7 virtual seconds, now 0.7 and 0.8), and the resumed upgrade
    that started that much later failed under the severe plane: both
    runs escalated ``resume-incomplete``."""

    @pytest.mark.parametrize("run_id", ["ami_changed-11", "sg_unavailable-08"])
    def test_heals_and_resumes(self, run_id):
        config = CampaignConfig(
            runs_per_fault=12,
            large_cluster_runs=0,
            seed=2014001,
            chaos_profile="severe",
            recover=True,
        )
        spec = next(s for s in Campaign(config).build_specs() if s.run_id == run_id)
        outcome = execute_run(spec)
        assert not outcome.failed, outcome.error
        rec = outcome.recovery
        assert rec["status"] == RECOVERED, rec["escalation_reason"]
        assert rec["resume_status"] == OP_COMPLETED


class TestDeterminism:
    def test_serial_equals_parallel_bit_for_bit(self, pool_spy):
        serial = run_campaign(seed=301, max_workers=1)
        with pool_spy.expect(4):
            parallel = run_campaign(seed=301, max_workers=4)
        assert [dataclasses.asdict(o) for o in serial] == [
            dataclasses.asdict(o) for o in parallel
        ]


@pytest.mark.chaos
class TestChaosGate:
    def test_severe_chaos_never_crashes_recovery(self, pool_spy):
        """Recovery under a blackholing, erroring API plane: every run
        still reaches an explicit terminal class — degradation may turn
        RECOVERED into ESCALATED, never into an exception or a hang."""
        with pool_spy.expect(4):
            outcomes = run_campaign(seed=99, chaos="severe", max_workers=4)
        assert len(outcomes) == 8
        for outcome in outcomes:
            assert not outcome.failed, (outcome.spec.run_id, outcome.error)
            rec = outcome.recovery
            assert rec is not None
            assert rec["status"] in (RECOVERED, ESCALATED)
            if rec["status"] == ESCALATED:
                # Exhaustion is explicit: a human-action plan is attached.
                assert rec["advisory"] or not rec["cause_ids"]

    @pytest.mark.parametrize("fault_type", FAULT_TYPES)
    def test_recover_run_returns_within_its_bound(self, fault_type):
        """ROADMAP 3(d)'s never-hangs, as a number: the recovery budget,
        then at most one resumed upgrade — its horizon, the settle time
        and a quiesce — however the severe plane answers."""
        budget = inspect.signature(recover_run).parameters["budget"].default
        bound = budget + RESUME_HORIZON + SETTLE_TIME + QUIESCE_LIMIT
        testbed = build_testbed(cluster_size=4, seed=99, chaos="severe")
        schedule_fault(testbed, FaultPlan(fault_type=fault_type, inject_at=40.0))
        operation = testbed.run_upgrade(trace_id="run")
        started = testbed.engine.now
        rec = recover_run(testbed, operation, run_id="run")
        assert rec["status"] in (RECOVERED, ESCALATED)
        assert testbed.engine.now - started <= bound
