"""The fault-injection campaign (§V.A): 8 fault types x N runs each.

Each run provisions a fresh simulated testbed (cluster of 4 or 20
instances), starts a rolling upgrade watched by POD-Diagnosis, injects one
fault at a random point during the upgrade, and — for a mixed subset of
runs — adds concurrent interference (scale-in, random termination,
second-team account-limit pressure).  Per-run outcomes feed the Table I
metrics and Figs. 6/7.
"""

from __future__ import annotations

import dataclasses
import math
import random
import typing as _t

from repro.evaluation.faults import (
    CONFIG_FAULTS,
    FAULT_TYPES,
    RESOURCE_FAULTS,
    FaultPlan,
    schedule_fault,
)
from repro.faulttree.library import EXPECTED_ROOT_CAUSE
from repro.obs import Observability, Span
from repro.operations.interference import InterferencePlan, InterferenceScheduler, SecondTeam
from repro.testbed import Testbed

#: The paper's two cluster sizes (§V.B).
SMALL_CLUSTER = 4
LARGE_CLUSTER = 20
#: Probability a run carries each kind of interference (§V.A's mix).
P_SCALE_IN = 0.25
P_RANDOM_TERMINATION = 0.12
P_ACCOUNT_PRESSURE = 0.06
#: Probability a (revertible) configuration fault is transient.
P_TRANSIENT = 0.08

#: Interference truth labels.
SCALE_IN = "SCALE_IN"
RANDOM_TERMINATION = "RANDOM_TERMINATION"
ACCOUNT_LIMIT = "ACCOUNT_LIMIT"


@dataclasses.dataclass
class RunSpec:
    """Everything that defines one campaign run."""

    run_id: str
    fault_type: str
    seed: int
    cluster_size: int = 4
    inject_at: float = 120.0
    transient: bool = False
    interference: InterferencePlan = dataclasses.field(default_factory=InterferencePlan)
    horizon: float = 5400.0
    #: API-plane degradation level (see :mod:`repro.cloud.chaos`).
    chaos_profile: str = "none"
    #: Export this run's spans + metrics at its end (see :mod:`repro.obs`).
    trace: bool = False
    #: Run the closed-loop recovery supervisor after the upgrade ends
    #: (diagnose → remediate → verify → resume; see :mod:`repro.recovery`).
    recover: bool = False


@dataclasses.dataclass
class ReportSummary:
    """Compact view of one diagnosis report."""

    trigger: str
    trigger_detail: str
    duration: float
    causes: list[tuple[str, str]]  # (node_id, status)
    no_root_cause: bool
    test_count: int
    #: Verdicts forced to inconclusive by API-plane degradation.
    degraded_tests: int = 0


def _confirmed(reports: _t.Iterable[ReportSummary]) -> set[str]:
    """The cause ids these reports confirm."""
    return {n for report in reports for n, status in report.causes if status == "confirmed"}


@dataclasses.dataclass(frozen=True)
class RunScore:
    """One run's Table I tally (:meth:`RunOutcome.score`); a fault type's
    metrics bucket adds these up."""

    #: Recall numerator: a detection at or after the injection.
    detected: bool
    #: Diagnosis explained the injected fault.
    fault_correct: bool
    #: Interference truths some report's causes point at.
    interference: list[str]
    #: Of those, how many were diagnosed correctly.
    interference_correct: int
    #: Reports matching no real event, one per distinct trigger.
    false_positives: list[ReportSummary]

    @property
    def correct(self) -> int:
        """Table I's Num_correct for the run: the detected fault, the
        detected interference, and each false positive that honestly
        reports "No root cause identified"."""
        return (
            (self.detected and self.fault_correct)
            + self.interference_correct
            + sum(r.no_root_cause for r in self.false_positives)
        )


@dataclasses.dataclass
class RunOutcome:
    """Ground truth + observations of one run."""

    spec: RunSpec
    injected_at: float | None
    reverted_at: float | None
    truth: list[str]  # fault type + interference labels that actually occurred
    #: Whether the injected fault had any observable effect (a wrong
    #: instance launched, a launch failed, ...).  Concurrent interference
    #: can stall the upgrade before the fault ever bites — detection then
    #: sees only the interference, and scoring must not demand a root
    #: cause for an effect that never existed.
    fault_manifested: bool
    operation_status: str
    #: When the orchestrator itself first logged a failure (its own
    #: "Exception during ..." line), or None if it never noticed — the
    #: §II baseline: "Asgard may not recognize some provisioning
    #: failures", and reports can lag "as long as 70 minutes".
    orchestrator_detected_at: float | None
    detections: list[dict]
    reports: list[ReportSummary]
    #: Traceback text when the run itself crashed (worker exception); the
    #: campaign reports such runs as structured failures instead of dying,
    #: and metrics exclude them rather than miscounting.
    error: str | None = None
    #: Consistent-API client + chaos-controller counters for the run —
    #: the "API health" axis the chaos sweep correlates against.
    api_health: dict = dataclasses.field(default_factory=dict)
    #: The run's spans when the spec asked for tracing, read from its
    #: records at export (:func:`repro.obs.run_trace`); None otherwise.
    #: Spans are keyed to virtual time, so the serial ≡ parallel
    #: bit-for-bit guarantee covers them too.
    trace: list[Span] | None = None
    #: Pipeline metrics snapshot (counters/gauges/histograms) when traced;
    #: read from the run at export (:func:`repro.obs.run_metrics`).
    metrics: dict = dataclasses.field(default_factory=dict)
    #: Structured recovery record (see :mod:`repro.recovery.supervisor`)
    #: when the spec asked for recovery and the run needed it; None for
    #: healthy runs and non-recovering campaigns.
    recovery: dict | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    @classmethod
    def failure(cls, spec: RunSpec, error: str) -> "RunOutcome":
        """A structured record for a run that crashed instead of finishing."""
        return cls(
            spec=spec,
            injected_at=None,
            reverted_at=None,
            truth=[],
            fault_manifested=False,
            operation_status="crashed",
            orchestrator_detected_at=None,
            detections=[],
            reports=[],
            error=error,
        )

    # -- views of the records ------------------------------------------------

    @property
    def first_detection_at(self) -> float | None:
        return self.detections[0]["time"] if self.detections else None

    @property
    def first_detection_kind(self) -> str | None:
        return self.detections[0]["kind"] if self.detections else None

    @property
    def conformance_before_assertion(self) -> bool:
        """Conformance checking flagged the run before any assertion did (§V.D)."""
        first: dict[str, float] = {}
        for detection in self.detections:
            first.setdefault(detection["kind"], detection["time"])
        return first.get("conformance", math.inf) < first.get("assertion", math.inf)

    @property
    def degraded_verdicts(self) -> int:
        """Diagnostic-test verdicts lost to API-plane degradation."""
        return sum(r.degraded_tests for r in self.reports)

    # -- scoring (Table I semantics) -----------------------------------------

    @property
    def fault_detected(self) -> bool:
        """Recall numerator: any detection after (or at) injection."""
        if self.injected_at is None:
            return False
        return any(d["time"] >= self.injected_at - 1e-9 for d in self.detections)

    #: Causes that, while not the canonical root cause, genuinely point at
    #: a configuration fault (the injection *is* a concurrent LC change,
    #: and a reverted injection *is* a transient change).
    CONFIG_FAULT_EXTRAS = frozenset({"concurrent-upgrade", "transient-config-change", "lc-corrupted"})

    def _attributable(self, truth: str) -> set[str]:
        expected = set(EXPECTED_ROOT_CAUSE.get(truth, set()))
        if truth in CONFIG_FAULTS:
            expected |= self.CONFIG_FAULT_EXTRAS
        return expected

    def attributed_reports(self) -> dict[str, list[ReportSummary]]:
        """Group reports by the truth event their causes point at."""
        grouped: dict[str, list[ReportSummary]] = {}
        for report in self.reports:
            cause_ids = {n for n, _s in report.causes}
            for truth in self.truth:
                if cause_ids & self._attributable(truth):
                    grouped.setdefault(truth, []).append(report)
                    break
        return grouped

    def score(self) -> RunScore:
        """This run's Table I tally, from one grouping of its reports.

        - A manifested fault is diagnosed correctly if a report confirms an
          expected root cause (``transient-config-change`` too for a
          transient fault: it genuinely was a reverted change); one masked
          by interference before it could bite, if what *was* detected got
          a confirmed explanation.
        - An interference truth is detected when a report's causes point at
          it, confirmed or not (§V.B), and diagnosed correctly when one
          confirms its cause — except a random termination, whose author
          the paper could not pin either: its reports must confirm nothing.
        - A false positive is a report matching no real event, one per
          distinct trigger: a stalled upgrade re-fires the same watchdog
          assertion every interval and the paper counts the failure once.
        """
        grouped = self.attributed_reports()
        attributed = {id(r) for reports in grouped.values() for r in reports}
        false_positives: list[ReportSummary] = []
        seen: set[tuple[str, str]] = set()
        for report in self.reports:
            key = (report.trigger, report.trigger_detail)
            if id(report) not in attributed and key not in seen:
                seen.add(key)
                false_positives.append(report)
        if self.fault_manifested:
            expected = set(EXPECTED_ROOT_CAUSE.get(self.spec.fault_type, set()))
            if self.spec.transient:
                expected.add("transient-config-change")
            fault_correct = bool(_confirmed(self.reports) & expected)
        else:
            fault_correct = bool(_confirmed(r for reports in grouped.values() for r in reports))
        interference = [t for t in self.truth if t != self.spec.fault_type and t in grouped]
        return RunScore(
            detected=self.fault_detected,
            fault_correct=fault_correct,
            interference=interference,
            interference_correct=sum(
                bool(_confirmed(grouped[t])) != (t == RANDOM_TERMINATION) for t in interference
            ),
            false_positives=false_positives,
        )

    def diagnosis_times(self) -> list[float]:
        return [r.duration for r in self.reports]


@dataclasses.dataclass
class CampaignConfig:
    """Shape of the whole campaign."""

    runs_per_fault: int = 20
    #: Of each fault's runs, how many use the large cluster.
    large_cluster_runs: int = 4
    seed: int = 2014
    #: API-plane degradation applied to every run (a chaos level name).
    chaos_profile: str = "none"
    #: Enable span tracing + pipeline metrics on every run.
    trace: bool = False
    #: Run closed-loop recovery (diagnose → remediate → verify → resume)
    #: after every run's upgrade phase.
    recover: bool = False

    def __post_init__(self) -> None:
        from repro.cloud.chaos import get_profile

        get_profile(self.chaos_profile)  # validate the name early


#: The launch error each resource fault leaves in the ASG's scaling
#: activities (the fourth, ELB_UNAVAILABLE, fails no launch).
_FAULT_ERROR_CODES = dict(
    zip(RESOURCE_FAULTS, ("InvalidAMIID.NotFound", "InvalidKeyPair.NotFound", "InvalidGroup.NotFound"))
)


def _fault_manifested(testbed, fault_type: str, injected_at: float | None,
                      reverted_at: float | None) -> bool:
    """Ground truth: did the injected fault produce any observable effect?"""
    if injected_at is None:
        return False
    state = testbed.cloud.state
    if fault_type in CONFIG_FAULTS:
        window_end = reverted_at if reverted_at is not None else float("inf")
        if testbed.has_wrong_instance(lambda i: injected_at <= i.launch_time <= window_end):
            return True
        if reverted_at is not None:
            return False
        params = testbed.params
        lc = state.latest_view("launch_configuration", params.lc_name)
        return lc is not None and bool(params.target.mismatches(lc))
    if fault_type in _FAULT_ERROR_CODES:
        code = _FAULT_ERROR_CODES[fault_type]
        return any(
            a.status == "Failed" and a.error_code == code and a.time >= injected_at
            for a in state.scaling_activities
        )
    # ELB_UNAVAILABLE: the ELB stays unavailable for the rest of the run,
    # so the fault is always observable (assertions / deregister calls).
    return True


def run_single(spec: RunSpec) -> RunOutcome:
    """Execute one campaign run on a fresh testbed."""
    testbed = Testbed(
        cluster_size=spec.cluster_size,
        seed=spec.seed,
        max_instances=40 if spec.cluster_size <= 4 else 64,
        chaos=spec.chaos_profile,
    )
    try:
        return _run_on(testbed, spec)
    finally:
        # The outcome is built: the run ends here, freed by reference count.
        testbed.close()


def _run_on(testbed: Testbed, spec: RunSpec) -> RunOutcome:
    interference = InterferenceScheduler(
        testbed.engine, testbed.cloud, testbed.stack.asg_name, seed=spec.seed
    )
    second_team = None
    if spec.interference.second_team_pressure_at is not None:
        second_team = SecondTeam(testbed.engine, testbed.cloud, seed=spec.seed + 5)
        second_team.provision()
    interference.schedule(spec.interference, second_team)
    fault_outcome = schedule_fault(
        testbed,
        FaultPlan(
            fault_type=spec.fault_type,
            inject_at=spec.inject_at,
            transient=spec.transient,
        ),
    )
    operation = testbed.run_upgrade(trace_id=spec.run_id, horizon=spec.horizon)

    orchestrator_detected_at = next(
        (r.time for r in testbed.stream.records if "Exception during" in r.message), None
    )
    # Ground truth is judged on the post-upgrade state — *before* recovery
    # heals it (a healed launch configuration must not un-manifest the
    # fault the run is scored on).
    manifested = _fault_manifested(
        testbed, spec.fault_type, fault_outcome["injected_at"], fault_outcome["reverted_at"]
    )

    truth = [spec.fault_type] if fault_outcome["injected_at"] is not None else []
    if spec.interference.scale_in_at is not None:
        truth.append(SCALE_IN)
    if spec.interference.random_termination_at is not None:
        truth.append(RANDOM_TERMINATION)
    if spec.interference.second_team_pressure_at is not None:
        truth.append(ACCOUNT_LIMIT)

    # Detection/diagnosis views are snapshotted *before* recovery runs:
    # precision/recall/accuracy score the detection phase, while anything
    # the resumed operation surfaces lives inside the recovery record.
    detections = [
        {
            "time": d.time,
            "kind": d.kind,
            "detail": d.detail,
            "cause": d.cause,
            "step": d.step,
        }
        for d in testbed.pod.detections
    ]
    reports = [
        ReportSummary(
            trigger=r.trigger,
            trigger_detail=r.trigger_detail,
            duration=r.duration,
            causes=[(c.node_id, c.status) for c in r.root_causes],
            no_root_cause=r.no_root_cause,
            test_count=len(r.tests),
            degraded_tests=r.degraded_test_count,
        )
        for r in testbed.pod.reports
    ]

    recovery = None
    if spec.recover:
        from repro.recovery.supervisor import recover_run

        # Entirely in virtual time inside this run's own engine, seeded
        # from the spec: the serial ≡ parallel bit-for-bit guarantee and
        # seed determinism carry over to recovery for free.
        recovery = recover_run(testbed, operation, run_id=spec.run_id, seed=spec.seed)

    api_health = dict(testbed.pod.env.client.counters())
    api_health.update({f"chaos_{k}": v for k, v in testbed.chaos.counters.items()})
    return RunOutcome(
        spec=spec,
        injected_at=fault_outcome["injected_at"],
        reverted_at=fault_outcome["reverted_at"],
        truth=truth,
        fault_manifested=manifested,
        operation_status=operation.status,
        orchestrator_detected_at=orchestrator_detected_at,
        detections=detections,
        reports=reports,
        api_health=api_health,
        trace=Observability().export_trace(testbed) if spec.trace else None,
        metrics=Observability().export_metrics(testbed) if spec.trace else {},
        recovery=recovery,
    )


class Campaign:
    """The full 8 x runs_per_fault campaign."""

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = config or CampaignConfig()
        self.outcomes: list[RunOutcome] = []

    def build_specs(self) -> list[RunSpec]:
        """Deterministically derive every run's spec from the seed."""
        config = self.config
        rng = random.Random(config.seed)
        specs: list[RunSpec] = []
        for fault_type in FAULT_TYPES:
            for index in range(config.runs_per_fault):
                large = index < config.large_cluster_runs
                cluster = LARGE_CLUSTER if large else SMALL_CLUSTER
                # Inject somewhere in the first two thirds of the expected
                # upgrade duration ("at a random point of time during
                # rolling upgrade").
                expected_duration = 1100.0 if large else 450.0
                inject_at = rng.uniform(20.0, expected_duration * 0.75)
                plan = InterferencePlan()
                if rng.random() < P_SCALE_IN:
                    plan.scale_in_at = rng.uniform(40.0, expected_duration * 0.5)
                if rng.random() < P_RANDOM_TERMINATION:
                    plan.random_termination_at = rng.uniform(40.0, expected_duration * 0.5)
                if rng.random() < P_ACCOUNT_PRESSURE:
                    plan.second_team_pressure_at = rng.uniform(10.0, expected_duration * 0.3)
                    # Hungry second team: wants more than the account holds,
                    # so it races the upgrade for every freed slot.
                    plan.second_team_target_headroom = -6
                transient = fault_type in CONFIG_FAULTS and rng.random() < P_TRANSIENT
                specs.append(
                    RunSpec(
                        run_id=f"{fault_type.lower()}-{index + 1:02d}",
                        fault_type=fault_type,
                        seed=config.seed * 100_000 + len(specs),
                        cluster_size=cluster,
                        inject_at=inject_at,
                        transient=transient,
                        interference=plan,
                        chaos_profile=config.chaos_profile,
                        trace=config.trace,
                        recover=config.recover,
                    )
                )
        return specs

    def run(
        self,
        progress: _t.Callable[[int, int, RunOutcome], None] | None = None,
        max_workers: int | None = None,
    ) -> list[RunOutcome]:
        """Execute every run, serially or across ``max_workers`` processes.

        Outcomes are returned in spec order regardless of worker count;
        for a fixed config seed the results are bit-for-bit identical at
        any parallelism (see :mod:`repro.evaluation.parallel`).
        ``max_workers`` of ``None``/``0``/``1`` is serial and ``-1`` is
        every core; requests are clamped to the core and spec counts.
        """
        from repro.evaluation.parallel import execute_specs

        self.outcomes.extend(
            execute_specs(self.build_specs(), max_workers=max_workers, progress=progress)
        )
        return self.outcomes
