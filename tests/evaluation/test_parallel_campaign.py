"""Parallel campaign execution: determinism, crash isolation, pickling.

The campaign's determinism contract: for a fixed config seed, outcomes —
and the computed ``CampaignMetrics`` — are bit-for-bit identical whether
the runs execute serially or across any number of worker processes.
"""

import concurrent.futures
import contextlib
import dataclasses
import inspect
import json
import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.chaos import CHAOS_LEVELS
from repro.cloud.freeze import FrozenView
from repro.evaluation.campaign import (
    Campaign,
    CampaignConfig,
    ReportSummary,
    RunOutcome,
    RunSpec,
    run_single,
)
from repro.evaluation import faults
from repro.evaluation.faults import (
    CONFIG_FAULTS,
    CONFIG_POLL,
    FAULT_TYPES,
    REVERTIBLE,
    TERMINAL_LINES,
)
from repro.evaluation.metrics import compute_metrics
from repro.evaluation.parallel import (
    execute_run,
    execute_specs,
    resolve_workers,
    warm_worker,
)
from repro.operations.interference import InterferencePlan
from repro.pod.service import QUIESCE_LIMIT
from repro.recovery import recover_run
from repro.testbed import RESUME_HORIZON, SETTLE_TIME, Testbed

def _specs_of(config: CampaignConfig) -> list[RunSpec]:
    return Campaign(config).build_specs()


_SMALL_MIX = _specs_of(CampaignConfig(runs_per_fault=3, large_cluster_runs=0, seed=424))
#: Reduced campaign for the regression tests: of a shipped 8 x 3
#: campaign, the 3 runs of one resource fault and of one configuration
#: fault.
SMALL_SPECS = [
    spec for fault in ("AMI_UNAVAILABLE", "SG_WRONG") for spec in _SMALL_MIX
    if spec.fault_type == fault
]


def _run(specs: list[RunSpec], max_workers: int | None) -> tuple[list[RunOutcome], bytes]:
    outcomes = execute_specs(specs, max_workers=max_workers)
    return outcomes, pickle.dumps(compute_metrics(outcomes))


def _run_pooled(
    pool_spy, specs: list[RunSpec], max_workers: int
) -> tuple[list[RunOutcome], bytes]:
    """``_run`` that proves it met a pool: the determinism contract is
    serial ≡ pool, so exactly one pool of ``max_workers`` must start."""
    with pool_spy.expect(max_workers):
        return _run(specs, max_workers)


def _specs_pooled(pool_spy, specs, max_workers: int, **kwargs) -> list[RunOutcome]:
    """``execute_specs`` across a real pool, asserting one was started."""
    with pool_spy.expect(max_workers):
        return execute_specs(specs, max_workers=max_workers, **kwargs)


def _explode_on_second(spec: RunSpec) -> RunOutcome:
    """Picklable runner that crashes for exactly one spec."""
    if spec.run_id.endswith("-02"):
        raise RuntimeError("injected worker crash")
    return run_single(spec)


def _die_on_last_sg_wrong(spec: RunSpec) -> RunOutcome:
    """Picklable runner that kills its *worker process* on one spec."""
    if spec.run_id == "sg_wrong-03":
        assert multiprocessing.parent_process() is not None, "would kill pytest itself"
        os._exit(3)
    return run_single(spec)


def _outcome_holding_a_view(spec: RunSpec) -> RunOutcome:
    """Picklable runner whose outcome carries a frozen view."""
    return dataclasses.replace(
        RunOutcome.failure(spec, "view"), api_health=FrozenView({"calls": 1})
    )


class TestDeterminism:
    def test_worker_count_invisible_in_outcomes(self, pool_spy):
        serial, serial_metrics = _run(SMALL_SPECS, None)
        two, two_metrics = _run_pooled(pool_spy, SMALL_SPECS, 2)
        four, four_metrics = _run_pooled(pool_spy, SMALL_SPECS, 4)
        for parallel in (two, four):
            assert [o.truth for o in parallel] == [o.truth for o in serial]
            assert [[r.causes for r in o.reports] for o in parallel] == [
                [r.causes for r in o.reports] for o in serial
            ]
            assert parallel == serial  # full dataclass equality, spec order
            assert [dataclasses.asdict(o) for o in parallel] == [
                dataclasses.asdict(o) for o in serial
            ]
        # Byte-identical Table I metrics at any parallelism.
        assert serial_metrics == two_metrics == four_metrics

    @pytest.mark.slow
    def test_full_fault_mix_deterministic(self, pool_spy):
        specs = _specs_of(CampaignConfig(runs_per_fault=1, large_cluster_runs=0, seed=77))
        serial, serial_metrics = _run(specs, None)
        four, four_metrics = _run_pooled(pool_spy, specs, 4)
        assert four == serial
        assert serial_metrics == four_metrics


def _trace_bytes(outcome: RunOutcome) -> tuple[bytes, bytes]:
    """Canonical serialisation of the exported trace + metrics.

    JSON with sorted keys, not ``pickle.dumps``: pickle encodes object
    *identity* (an interned string shared inside one process pickles as a
    memo back-reference, a round-tripped copy pickles literally), so its
    bytes differ across equal graphs.  The exported artifact is JSON, and
    that is what must be bit-for-bit identical.
    """
    return (
        json.dumps([span.to_dict() for span in outcome.trace], sort_keys=True).encode(),
        json.dumps(outcome.metrics, sort_keys=True).encode(),
    )


class TestTracedDeterminism:
    """Tracing adds no engine events or RNG draws: traced outcomes —
    spans and metric snapshots included — stay bit-for-bit identical at
    any worker count."""

    TRACED_SPECS = [dataclasses.replace(spec, trace=True) for spec in SMALL_SPECS]

    def test_traced_small_campaign_identical(self, pool_spy):
        serial, serial_metrics = _run(self.TRACED_SPECS, None)
        parallel, parallel_metrics = _run_pooled(pool_spy, self.TRACED_SPECS, 2)
        assert parallel == serial
        assert [_trace_bytes(o) for o in parallel] == [_trace_bytes(o) for o in serial]
        assert parallel_metrics == serial_metrics
        for outcome in serial:
            assert outcome.trace, "traced run exported no spans"
            counters = outcome.metrics["counters"]
            assert counters, "traced run has no counters"
            # Ingest and diagnosis are both visible in every traced run.
            assert counters["pipeline.records_ingested"] > 0
            assert counters["diagnosis.requests"] > 0

    @pytest.mark.slow
    def test_traced_full_fault_mix_identical(self, pool_spy):
        # 8 fault types x 3 runs = 24 traced runs, serial vs 4 workers.
        specs = _specs_of(
            CampaignConfig(runs_per_fault=3, large_cluster_runs=0, seed=909, trace=True)
        )
        serial, serial_metrics = _run(specs, None)
        parallel, parallel_metrics = _run_pooled(pool_spy, specs, 4)
        assert parallel == serial
        assert [_trace_bytes(o) for o in parallel] == [_trace_bytes(o) for o in serial]
        assert parallel_metrics == serial_metrics
        stages = {s.stage for o in serial for s in o.trace}
        assert {"ingest", "conformance", "assertion", "diagnosis"} <= stages

    def test_tracing_does_not_change_untraced_results(self):
        traced, _ = _run(self.TRACED_SPECS, None)
        plain, _ = _run(SMALL_SPECS, None)
        for with_trace, without in zip(traced, plain):
            stripped = dataclasses.replace(
                with_trace,
                spec=dataclasses.replace(with_trace.spec, trace=False),
                trace=None,
                metrics={},
            )
            assert stripped == without

    def test_untraced_outcomes_carry_no_payload(self):
        plain, _ = _run(SMALL_SPECS, None)
        assert all(o.trace is None and o.metrics == {} for o in plain)


def _pool_that_breaks_after(delivered: int):
    """A stand-in ``ProcessPoolExecutor`` whose ``map`` delivers the first
    ``delivered`` outcomes, then breaks the way a dying worker breaks it."""

    class BreakingPool:
        def __init__(self, max_workers, initializer):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, task, specs):
            for spec in specs[:delivered]:
                yield task(spec)
            raise BrokenProcessPool("a worker died")

    return BreakingPool


class TestCrashIsolation:
    def _specs(self):
        return list(SMALL_SPECS)

    @pytest.mark.parametrize("max_workers", [None, 2, 4])
    def test_one_crashing_run_does_not_kill_campaign(self, max_workers, pool_spy):
        specs = self._specs()
        if max_workers is None:
            outcomes = execute_specs(specs, runner=_explode_on_second)
        else:
            outcomes = _specs_pooled(pool_spy, specs, max_workers, runner=_explode_on_second)
        assert len(outcomes) == len(specs)
        failed = [o for o in outcomes if o.failed]
        assert [o.spec.run_id for o in failed] == [
            s.run_id for s in specs if s.run_id.endswith("-02")
        ]
        for outcome in failed:
            assert "injected worker crash" in outcome.error
            assert outcome.operation_status == "crashed"
            assert outcome.detections == [] and outcome.reports == []
            # Failure records must not score as anything.
            assert not outcome.fault_detected
            assert outcome.score().false_positives == []

    def test_metrics_exclude_failed_runs(self):
        specs = self._specs()
        outcomes = execute_specs(specs, runner=_explode_on_second)
        clean = [o for o in outcomes if not o.failed]
        metrics = compute_metrics(outcomes)
        assert metrics.failed_runs == len(outcomes) - len(clean)
        assert metrics.failed_runs > 0
        # Rates computed over the clean runs only: a crash is neither a
        # missed detection nor a false positive.
        assert metrics.total_runs == len(outcomes)
        assert metrics.faults_injected == len(clean)
        clean_metrics = compute_metrics(clean)
        assert metrics.recall == clean_metrics.recall
        assert metrics.precision == clean_metrics.precision
        assert metrics.accuracy_rate == clean_metrics.accuracy_rate

    @pytest.mark.parametrize("max_workers", [2, 4])
    def test_dead_worker_fails_every_run_not_yet_delivered(self, max_workers, pool_spy):
        # os._exit in a worker breaks the pool: the campaign still returns,
        # with one outcome per spec.  What map delivered before the break
        # is the real outcomes; every spec after it is a failure record.
        specs = self._specs()
        assert specs[-1].run_id == "sg_wrong-03"
        outcomes = _specs_pooled(pool_spy, specs, max_workers, runner=_die_on_last_sg_wrong)
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]
        delivered = [o for o in outcomes if not o.failed]
        failed = outcomes[len(delivered):]
        assert failed and all(o.failed for o in failed), "failures are the undelivered suffix"
        for outcome in failed:
            assert "worker failed: BrokenProcessPool" in outcome.error
            assert outcome.operation_status == "crashed"
        assert delivered == execute_specs(specs[:len(delivered)])
        metrics = compute_metrics(outcomes)
        assert metrics.failed_runs == len(failed)
        assert metrics.total_runs == len(specs)
        assert metrics.faults_injected == len(specs) - len(failed)

    @pytest.mark.parametrize("delivered", [0, 2, 6])
    def test_broken_pool_reports_every_undelivered_spec_in_order(self, delivered, monkeypatch):
        # Where the pool breaks is up to the workers; the delivery loop
        # must turn the undelivered suffix, whatever its length, into
        # failure records that progress reports in spec order.
        specs = self._specs()
        assert delivered <= len(specs)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _pool_that_breaks_after(delivered)
        )
        seen = []
        outcomes = execute_specs(
            specs,
            max_workers=2,
            progress=lambda done, total, o: seen.append((done, total, o.spec.run_id, o.failed)),
        )
        assert seen == [
            (n, len(specs), s.run_id, n > delivered) for n, s in enumerate(specs, 1)
        ]
        assert outcomes[:delivered] == execute_specs(specs[:delivered])
        for outcome in outcomes[delivered:]:
            assert "worker failed: BrokenProcessPool: a worker died" in outcome.error
            assert outcome.operation_status == "crashed"

    def test_unpicklable_runner_raises_instead_of_failing_runs(self, pool_spy):
        # Only a broken pool becomes failure records.  A runner that cannot
        # cross to the workers is the caller's bug, and it surfaces.
        def local_runner(spec):
            return run_single(spec)

        with pytest.raises(Exception, match="pickle"):
            _specs_pooled(pool_spy, self._specs()[:2], 2, runner=local_runner)

    def test_monkeypatched_run_single_serial(self, monkeypatch):
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            raise ValueError("kaboom")

        import repro.evaluation.parallel as parallel_mod

        monkeypatch.setattr(parallel_mod, "run_single", flaky)
        campaign = Campaign(CampaignConfig(runs_per_fault=1, large_cluster_runs=0, seed=424))
        outcomes = campaign.run()
        assert calls["n"] == len(outcomes)
        assert all(o.failed and "kaboom" in o.error for o in outcomes)
        assert compute_metrics(outcomes).failed_runs == len(outcomes)


class TestProgressBridge:
    # The parent reports each outcome as it is delivered: in spec order on
    # both paths, whatever order the workers finish in.

    def test_progress_fires_in_parent_for_every_run(self, pool_spy):
        specs = list(SMALL_SPECS) * 2
        seen: list[tuple[int, int, str]] = []
        outcomes = _specs_pooled(
            pool_spy,
            specs,
            2,
            progress=lambda done, total, outcome: seen.append(
                (done, total, outcome.spec.run_id)
            ),
        )
        assert seen == [(n, len(specs), s.run_id) for n, s in enumerate(specs, 1)]
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]

    def test_serial_progress_in_spec_order(self):
        specs = list(SMALL_SPECS)[:2]
        seen = []
        outcomes = execute_specs(specs, progress=lambda d, t, o: seen.append((d, t, o.spec.run_id)))
        assert seen == [(n, len(specs), s.run_id) for n, s in enumerate(specs, 1)]
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]

    def test_no_specs_start_no_pool_and_report_nothing(self, pool_spy):
        seen = []
        with pool_spy.expect():
            outcomes = execute_specs([], max_workers=4, progress=lambda *a: seen.append(a))
        assert outcomes == [] and seen == []


class TestPicklability:
    def test_run_spec_round_trips(self):
        spec = RunSpec(
            run_id="p-1",
            fault_type="AMI_CHANGED",
            seed=3,
            cluster_size=20,
            inject_at=55.5,
            transient=True,
            interference=InterferencePlan(scale_in_at=80.0, second_team_pressure_at=10.0),
        )
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_interference_plan_round_trips(self):
        plan = InterferencePlan(
            scale_in_at=1.0,
            scale_in_by=2,
            random_termination_at=3.0,
            second_team_pressure_at=4.0,
            second_team_target_headroom=-6,
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_run_outcome_round_trips(self):
        spec = RunSpec(run_id="p-2", fault_type="AMI_UNAVAILABLE", seed=902, inject_at=40.0)
        outcome = execute_run(spec)
        restored = pickle.loads(pickle.dumps(outcome))
        assert restored == outcome
        assert isinstance(restored.reports[0], ReportSummary) if restored.reports else True
        # Scoring still works on the restored object.
        assert restored.score() == outcome.score()

    def test_failure_record_round_trips(self):
        spec = RunSpec(run_id="p-3", fault_type="SG_WRONG", seed=7, inject_at=30.0)
        outcome = RunOutcome.failure(spec, "Traceback: boom")
        restored = pickle.loads(pickle.dumps(outcome))
        assert restored == outcome
        assert restored.failed

    def test_a_frozen_view_in_an_outcome_breaks_the_pool(self, pool_spy):
        # Views do not unpickle, so an outcome carrying one cannot cross
        # back silently: the parent fails to read it, the pool breaks, and
        # every run comes back a failure record.
        specs = list(SMALL_SPECS)[:2]
        outcomes = _specs_pooled(pool_spy, specs, 2, runner=_outcome_holding_a_view)
        assert [o.spec.run_id for o in outcomes] == [s.run_id for s in specs]
        assert all(o.failed and "BrokenProcessPool" in o.error for o in outcomes)

    def test_no_unpicklable_defaults_in_spec_fields(self):
        # A default_factory returning an unpicklable object (lambda, open
        # handle) would only explode inside a pool; catch it here.
        for cls in (RunSpec, InterferencePlan):
            for field in dataclasses.fields(cls):
                if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                    pickle.dumps(field.default_factory())


class TestWarmWorker:
    def test_warm_worker_is_idempotent_and_primes_caches(self):
        from repro.faulttree.library import shared_standard_fault_trees
        from repro.operations.profile import shared_rolling_upgrade_profile

        warm_worker()
        profile = shared_rolling_upgrade_profile()
        trees = shared_standard_fault_trees()
        warm_worker()
        # lru_cache(1): the warm objects are process-wide singletons.
        assert shared_rolling_upgrade_profile() is profile
        assert shared_standard_fault_trees() is trees

    def test_shared_registries_are_not_mutated_by_runs(self):
        from repro.faulttree.library import shared_standard_fault_trees

        trees = shared_standard_fault_trees()
        before = {tree_id: info["nodes"] for tree_id, info in trees.stats().items()}
        execute_specs(SMALL_SPECS[:2], max_workers=None)
        assert {t: i["nodes"] for t, i in trees.stats().items()} == before


class TestResolveWorkers:
    def test_serial_values(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(1) == 1

    def test_capped_at_total(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(8, total=3) == 3

    def test_negative_means_all_cores(self, monkeypatch):
        assert resolve_workers(-1, total=1000) >= 1
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(-1, total=1000) == 6

    @pytest.mark.parametrize(
        "max_workers, total, cpu_count, expected",
        [
            # One-core host: every request resolves to in-process.
            (2, 100, 1, 1),
            (8, 100, 1, 1),
            (-1, 100, 1, 1),
            # Requests beyond the core count are clamped to it.
            (8, 100, 4, 4),
            (3, 100, 4, 3),
            # ...and beyond the spec count, to that.
            (4, 2, 8, 2),
            (-1, 3, 16, 3),
            # total=0 means "unknown": no spec cap applies.
            (4, 0, 8, 4),
        ],
    )
    def test_matrix(self, monkeypatch, max_workers, total, cpu_count, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert resolve_workers(max_workers, total=total) == expected

    def test_one_core_host_starts_no_pool(self, pool_spy, monkeypatch):
        # The executor's only serial "fallback": a worker request on a
        # one-core host resolves to the serial loop, in spec order.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        specs = list(SMALL_SPECS)
        seen = []
        with pool_spy.expect():
            outcomes = execute_specs(
                specs,
                max_workers=4,
                progress=lambda done, total, o: seen.append((done, total, o.spec.run_id)),
            )
        assert outcomes == execute_specs(specs)
        assert seen == [(n, len(specs), s.run_id) for n, s in enumerate(specs, 1)]


@contextlib.contextmanager
def watching_runs():
    """Record each closed run's operation log and each ``apply_fault``.

    Yields ``(logs, applied)``: one ``[(time, message)]`` list per run in
    close order, and one fault type per injection.
    """
    logs, applied = [], []
    original_close, original_apply = Testbed.close, faults.apply_fault

    def close_keeping_the_log(self):
        logs.append([(r.time, r.message) for r in self.stream.records])
        original_close(self)

    def counting_apply(testbed, fault_type):
        applied.append(fault_type)
        return original_apply(testbed, fault_type)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Testbed, "close", close_keeping_the_log)
        patch.setattr(faults, "apply_fault", counting_apply)
        yield logs, applied


@contextlib.contextmanager
def closing_times():
    """Record the virtual time at which each run's testbed closes: the
    run's end, after any recovery."""
    times = []
    original_close = Testbed.close

    def close_noting_the_time(self):
        times.append(self.engine.now)
        original_close(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Testbed, "close", close_noting_the_time)
        yield times


def outcome_digest(outcome) -> str:
    return json.dumps(dataclasses.asdict(outcome), sort_keys=True, default=str)


class TestOneRunPerSpec:
    """A spec's outcome is a function of that spec alone: the fault fires
    at ``inject_at`` or on the upgrade's terminal log line, whichever
    comes first, and ``execute_run`` runs the spec once."""

    def test_late_spec_injects_at_completion(self):
        spec = RunSpec(run_id="late", fault_type="AMI_UNAVAILABLE", seed=31, inject_at=900.0)
        ran = []

        def counting_runner(given):
            ran.append(given)
            return run_single(given)

        with watching_runs() as (logs, applied):
            outcome = execute_run(spec, counting_runner)
        assert ran == [spec] and outcome.spec is spec
        assert applied == ["AMI_UNAVAILABLE"]
        [log] = logs
        completed = [t for t, m in log if m.startswith("Rolling upgrade task completed")]
        assert outcome.operation_status == "completed"
        assert completed and outcome.injected_at == completed[0] < 300.0 + spec.inject_at

    def test_upgrade_failing_before_inject_at_injects_at_its_failure_line(self):
        # A hungry second team starves the replacement launches, so the
        # upgrade times out long before the fault is due.
        plan = InterferencePlan(second_team_pressure_at=20.0, second_team_target_headroom=-6)
        spec = RunSpec(
            run_id="starved", fault_type="KEYPAIR_WRONG", seed=1, inject_at=3000.0, interference=plan
        )
        with watching_runs() as (logs, applied):
            outcome = execute_run(spec)
        [log] = logs
        failures = [t for t, m in log if m.startswith("Exception during")]
        assert outcome.operation_status == "failed" and applied == ["KEYPAIR_WRONG"]
        assert failures and outcome.injected_at == failures[0] < 300.0 + spec.inject_at

    @settings(max_examples=100, deadline=None)
    @given(
        fault_type=st.sampled_from(FAULT_TYPES),
        inject_at=st.floats(min_value=0.0, max_value=2000.0),
        seed=st.integers(min_value=0, max_value=10_000),
        transient=st.booleans(),
    )
    # Found by this property: a configuration fault due before the upgrade
    # has created the launch configuration it corrupts crashed the run.
    @example(fault_type="AMI_CHANGED", inject_at=0.0, seed=0, transient=False)
    def test_every_fault_fires_once_no_later_than_the_last_line(
        self, fault_type, inject_at, seed, transient
    ):
        spec = RunSpec(
            run_id="prop", fault_type=fault_type, seed=seed, inject_at=inject_at,
            transient=transient and fault_type in REVERTIBLE,
        )
        with watching_runs() as (logs, applied):
            first, second = execute_run(spec), execute_run(spec)
        assert not first.failed, first.error
        assert outcome_digest(first) == outcome_digest(second)
        assert applied == [fault_type, fault_type]
        ended = next((t for t, m in logs[0] if m.startswith(TERMINAL_LINES)), None)
        assert ended is not None, "a fault-only upgrade ends with a terminal line"
        # The testbed's boot ends at 300 s, when the fault is scheduled.
        due = 300.0 + inject_at
        updated = next(t for t, m in logs[0] if m.startswith("Updated launch configuration"))
        if fault_type in CONFIG_FAULTS and due < updated:
            # The launch configuration may not exist yet: at the first look
            # after it does.
            assert due <= first.injected_at <= min(updated + CONFIG_POLL, ended)
        else:
            assert first.injected_at == min(due, ended)

    @settings(max_examples=30, deadline=None)
    @given(
        fault_type=st.sampled_from(FAULT_TYPES),
        inject_at=st.floats(min_value=0.0, max_value=2000.0),
        seed=st.integers(min_value=0, max_value=10_000),
        chaos_profile=st.sampled_from(CHAOS_LEVELS),
        recover=st.booleans(),
    )
    # The two middle levels, which no seeded campaign pins, always run.
    @example(fault_type="SG_WRONG", inject_at=40.0, seed=3, chaos_profile="mild", recover=True)
    @example(
        fault_type="KEYPAIR_UNAVAILABLE", inject_at=40.0, seed=3, chaos_profile="moderate",
        recover=True,
    )
    def test_any_chaos_level_and_recovery_runs_once_within_its_bound(
        self, fault_type, inject_at, seed, chaos_profile, recover
    ):
        """Every API-plane level, recovering or not: the run never fails,
        the same spec gives the same outcome, and a recovery ends within
        ROADMAP 3(d)'s never-hangs bound."""
        spec = RunSpec(
            run_id="prop", fault_type=fault_type, seed=seed, inject_at=inject_at,
            chaos_profile=chaos_profile, recover=recover,
        )
        with closing_times() as ended:
            first, second = execute_run(spec), execute_run(spec)
        assert not first.failed, first.error
        assert outcome_digest(first) == outcome_digest(second)
        if first.recovery is not None:
            assert recover
            budget = inspect.signature(recover_run).parameters["budget"].default
            bound = budget + RESUME_HORIZON + SETTLE_TIME + QUIESCE_LIMIT
            assert ended[0] - first.recovery["started_at"] <= bound
