"""Seeded chaos regressions: campaigns on a degraded API plane.

The degradation guarantee under test: a chaotic control plane can make
diagnosis *inconclusive, never wrong or crashed*.  Chaos-induced API
failures surface as ``INCONCLUSIVE`` verdicts flagged ``degraded`` in
the report; no run ever crashes; and because every chaos decision is
drawn from the run's seeded RNG, outcomes stay bit-for-bit identical at
any worker count.
"""

import pickle

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, RunSpec, run_single
from repro.evaluation.metrics import compute_metrics
from repro.evaluation.sweeps import render_sweep, sweep

pytestmark = pytest.mark.chaos

#: One run per fault type (8 runs) on the worst profile — the fast-tier
#: regression that CI runs on every push (``make chaos``).
SEVERE_SMALL = CampaignConfig(
    runs_per_fault=1,
    large_cluster_runs=0,
    seed=9001,
    chaos_profile="severe",
)


def _run(config, max_workers=None):
    campaign = Campaign(config)
    campaign.run(max_workers=max_workers)
    return campaign.outcomes


class TestSevereCampaignSmall:
    """Fast seeded regression: the full fault mix under severe chaos."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        return _run(SEVERE_SMALL)

    def test_zero_crashed_runs(self, outcomes):
        assert len(outcomes) == 8
        assert [o.spec.run_id for o in outcomes if o.failed] == []
        assert all(o.operation_status != "crashed" for o in outcomes)

    def test_chaos_actually_fired(self, outcomes):
        """Severe chaos must visibly degrade the plane, or the
        regression is vacuous."""
        injected = sum(o.api_health.get("chaos_errors", 0) for o in outcomes)
        blackholed = sum(o.api_health.get("chaos_blackholes", 0) for o in outcomes)
        assert injected > 0
        assert blackholed > 0

    def test_api_health_counters_recorded(self, outcomes):
        for outcome in outcomes:
            assert outcome.api_health["calls"] > 0
            for key in ("retries", "timeouts", "retry_exhaustions", "blackholes"):
                assert key in outcome.api_health

    def test_chaos_failures_surface_as_degraded_verdicts(self, outcomes):
        """Chaos-induced API failures appear in reports as degraded
        (INCONCLUSIVE) test verdicts — not as crashes or wrong causes."""
        assert sum(o.degraded_verdicts for o in outcomes) > 0
        for outcome in outcomes:
            assert outcome.degraded_verdicts == sum(
                r.degraded_tests for r in outcome.reports
            )

    def test_metrics_roll_up_degradation(self, outcomes):
        metrics = compute_metrics(outcomes)
        assert metrics.failed_runs == 0
        assert metrics.degraded_verdicts == sum(o.degraded_verdicts for o in outcomes)
        assert metrics.api_health["calls"] > 0

    def test_detection_survives_the_degraded_plane(self, outcomes):
        """Chaos degrades diagnosis confidence, not fault detection:
        every manifested fault is still detected."""
        manifested = [o for o in outcomes if o.fault_manifested]
        assert manifested
        assert all(o.fault_detected for o in manifested)


class TestChaosDeterminism:
    def test_same_seed_same_profile_bitwise_identical(self):
        a = _run(SEVERE_SMALL)
        b = _run(SEVERE_SMALL)
        assert a == b

    def test_single_run_reproducible(self):
        spec = RunSpec(
            run_id="chaos-det", fault_type="AMI_CHANGED", seed=4242, chaos_profile="severe"
        )
        first, second = run_single(spec), run_single(spec)
        assert first == second
        assert first.api_health == second.api_health

    def test_profile_changes_the_run(self):
        calm = RunSpec(run_id="c", fault_type="AMI_CHANGED", seed=4242)
        stormy = RunSpec(
            run_id="c", fault_type="AMI_CHANGED", seed=4242, chaos_profile="severe"
        )
        assert run_single(calm).api_health != run_single(stormy).api_health


@pytest.mark.slow
class TestSevereCampaignAcceptance:
    """The acceptance-scale regression: >= 24 severe runs, serial vs
    parallel, zero crashes, byte-identical metrics."""

    def test_24_run_campaign_parallel_matches_serial(self, pool_spy):
        config = CampaignConfig(
            runs_per_fault=3,
            large_cluster_runs=0,
            seed=9002,
            chaos_profile="severe",
        )
        serial = _run(config)
        with pool_spy.expect(2):
            parallel = _run(config, max_workers=2)
        assert len(serial) == 24
        assert [o.spec.run_id for o in serial if o.failed] == []
        assert parallel == serial
        assert pickle.dumps(compute_metrics(parallel)) == pickle.dumps(
            compute_metrics(serial)
        )
        assert sum(o.degraded_verdicts for o in serial) > 0


def sweep_chaos(levels, runs_per_fault=3, seed=7004):
    """The same seeded campaign under each chaos profile (what ``repro
    chaos-sweep`` runs)."""
    return sweep("chaos_profile", {
        level: CampaignConfig(
            runs_per_fault=runs_per_fault, large_cluster_runs=0, seed=seed, chaos_profile=level
        )
        for level in levels
    })


class TestChaosSweep:
    def test_tiny_sweep_renders(self):
        points = sweep_chaos(levels=("none", "severe"), runs_per_fault=1, seed=9003)
        assert [p.value for p in points] == ["none", "severe"]
        for point in points:
            row = point.row()
            assert {"precision", "recall", "diag_mean_s", "degraded_verdicts", "crashed_runs"} <= set(row)
            assert row["crashed_runs"] == 0
        # A calm plane has nothing to degrade; a severe one does.
        assert points[0].row()["degraded_verdicts"] == 0
        assert points[1].row()["degraded_verdicts"] > 0
        text = render_sweep(points)
        assert "Sweep over chaos_profile" in text
        assert "severe" in text

    def test_degradation_is_monotone_and_bought_with_time(self):
        """Every named level, 3 runs per fault: recall survives (detection
        is log-driven), degraded verdicts rise with severity, and a severe
        plane costs retries and diagnosis time rather than wrong answers."""
        levels = ("none", "mild", "moderate", "severe")
        points = sweep_chaos(levels=levels, runs_per_fault=3)
        print("\n" + render_sweep(points))
        for point in points:
            assert point.row()["crashed_runs"] == 0, f"run crashed at level={point.value}"
            assert point.metrics.recall == 1.0, f"recall collapsed at level={point.value}"
        degraded = [point.row()["degraded_verdicts"] for point in points]
        assert degraded == sorted(degraded), f"degradation not monotone: {degraded}"
        calm, severe = points[0], points[-1]
        assert severe.metrics.api_health["retries"] > calm.metrics.api_health["retries"]
        assert severe.row()["diag_mean_s"] >= calm.row()["diag_mean_s"]

    def test_invalid_chaos_profile_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            CampaignConfig(chaos_profile="apocalyptic")
