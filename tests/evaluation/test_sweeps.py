"""Tests for the sweep utilities: rendering + structure, and the
campaign-backed sensitivity sweeps (beyond the paper's one configuration:
recall holds across interference, cluster size and transient faults; only
precision/accuracy may move).  The cluster-size sweep builds its configs
for :func:`repro.evaluation.sweeps.sweep`; the interference and transient
sweeps rewrite the shipped campaign's run specs with an explicit
``InterferencePlan`` or ``transient`` flag."""

import dataclasses

import pytest

from repro.evaluation import execute_specs
from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.faults import CONFIG_FAULTS
from repro.evaluation.metrics import CampaignMetrics, FaultTypeMetrics, compute_metrics
from repro.evaluation.sweeps import SweepPoint, render_sweep, sweep
from repro.operations.interference import InterferencePlan


def shipped_specs(runs_per_fault, seed):
    """The shipped campaign's small-cluster run specs."""
    return Campaign(
        CampaignConfig(runs_per_fault=runs_per_fault, large_cluster_runs=0, seed=seed)
    ).build_specs()


def calm(specs):
    """The same runs with no interference."""
    return [dataclasses.replace(spec, interference=InterferencePlan()) for spec in specs]


def point(parameter, value, specs):
    return SweepPoint(parameter, value, compute_metrics(execute_specs(specs)))


def sweep_interference(runs_per_fault=3, seed=7001):
    """The shipped §V.A interference mix (per run: scale-in 25 %, random
    termination 12 %, second-team account pressure 6 %) against the same
    runs with none."""
    specs = shipped_specs(runs_per_fault, seed)
    return [point("interference", "none", calm(specs)), point("interference", "mix", specs)]


def sweep_cluster_size(sizes, runs_per_fault=2, seed=7002):
    """All-small vs all-large campaigns (batch size follows the paper)."""
    return sweep("cluster_size", {
        size: CampaignConfig(
            runs_per_fault=runs_per_fault,
            large_cluster_runs=runs_per_fault if size == 20 else 0,
            seed=seed,
        )
        for size in sizes
    })


def sweep_transient_rate(rates, runs_per_fault=3, seed=7003):
    """Every configuration fault transient (rate 1) or none (rate 0), no
    interference: the paper's third wrong-diagnosis class scales with it."""
    specs = calm(shipped_specs(runs_per_fault, seed))
    return [
        point("transient_rate", rate, [
            dataclasses.replace(spec, transient=bool(rate) and spec.fault_type in CONFIG_FAULTS)
            for spec in specs
        ])
        for rate in rates
    ]


def stub_metrics(precision_fp=0):
    return CampaignMetrics(
        per_fault={
            "AMI_CHANGED": FaultTypeMetrics(
                "AMI_CHANGED", runs=1, tp=1, fp=precision_fp, correct_diagnoses=1
            )
        },
        total_runs=1,
        interference_events=0,
        diagnosis_times=[2.0],
        detection_latencies=[100.0],
        conformance_first_runs=0,
        conformance_eligible_runs=0,
    )


class TestSweepPoint:
    def test_row_shape(self):
        point = SweepPoint("interference_rate", 0.25, stub_metrics())
        row = point.row()
        assert row["parameter"] == "interference_rate"
        assert row["value"] == 0.25
        assert row["precision"] == 1.0
        assert row["diag_mean_s"] == 2.0

    def test_render_table(self):
        points = [
            SweepPoint("x", 0.0, stub_metrics()),
            SweepPoint("x", 1.0, stub_metrics(precision_fp=1)),
        ]
        text = render_sweep(points)
        assert "Sweep over x" in text
        assert "100.0%" in text and "50.0%" in text

    def test_render_empty(self):
        assert render_sweep([]) == "(empty sweep)"


class TestTinySweep:
    def test_single_point_interference_sweep(self):
        """One sweep point on a tiny campaign exercises the full path."""
        calm_point = point("interference", "none", calm(shipped_specs(1, seed=7100)))
        assert calm_point.metrics.total_runs == 8
        assert calm_point.metrics.recall == 1.0


class TestInterferenceSweep:
    @pytest.fixture(scope="class")
    def points(self):
        points = sweep_interference(runs_per_fault=3)
        print("\n" + render_sweep(points))
        return points

    def test_recall_survives_and_interference_is_detected(self, points):
        calm, stormy = points
        assert calm.metrics.recall == 1.0
        assert stormy.metrics.recall == 1.0
        assert calm.metrics.interference_events == 0
        assert stormy.metrics.interference_detected >= 1

    def test_interference_cannot_improve_accuracy(self, points):
        calm, stormy = points
        assert stormy.metrics.accuracy_rate <= calm.metrics.accuracy_rate + 1e-9
        # Measured (seed 7001, 3 runs per fault): every detection on
        # either side is a true positive and correctly diagnosed; the
        # shipped mix adds 5 detected interference events.
        assert (calm.metrics.tp, calm.metrics.false_positives) == (24, 0)
        assert (stormy.metrics.tp, stormy.metrics.false_positives) == (29, 0)
        assert calm.metrics.accuracy_rate == stormy.metrics.accuracy_rate == 1.0


class TestClusterSizeSweep:
    def test_recall_and_accuracy_hold_at_20_instances(self):
        points = sweep_cluster_size(sizes=(4, 20), runs_per_fault=2)
        print("\n" + render_sweep(points))
        for point in points:
            assert point.metrics.recall == 1.0, f"recall collapsed at n={point.value}"
            assert point.metrics.accuracy_rate >= 0.7


class TestTransientRateSweep:
    def test_transients_erode_accuracy_never_recall(self):
        points = sweep_transient_rate(rates=(0.0, 1.0), runs_per_fault=3)
        print("\n" + render_sweep(points))
        never, always = points
        assert never.metrics.recall == 1.0
        assert always.metrics.recall == 1.0, "transients must still be detected"
        # With every configuration fault transient, accuracy cannot exceed the
        # no-transient baseline (some flaps evade the monitor).
        assert always.metrics.accuracy_rate <= never.metrics.accuracy_rate + 1e-9
