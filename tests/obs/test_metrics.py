"""A run's metrics: histograms, the export that reads them, merging."""

import dataclasses

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, run_single
from repro.obs.snapshot import BUCKETS, Histogram, merge_snapshots, run_metrics
from repro.testbed import Testbed

#: A small-cluster seed-2014 run whose severe + recover twin recovers,
#: resumes, retries and trips a breaker: every source the export reads.
RUN_ID = "ami_changed-07"

FLAGS = {
    "paper": {},
    "severe+recover": {"chaos_profile": "severe", "recover": True},
}


@dataclasses.dataclass
class Run:
    """The untraced run of ``RUN_ID`` and what was read off its testbed
    just before it closed (closing drops the log processors)."""

    testbed: Testbed
    processors: list
    outcome: object
    exported: dict
    exported_again: dict


def untraced_run(flags: dict):
    spec = next(
        s for s in Campaign(CampaignConfig(seed=2014, **flags)).build_specs()
        if s.run_id == RUN_ID
    )
    seen = []
    original_close = Testbed.close

    def close_after_export(self):
        seen.append((self, list(self.pod.processors), run_metrics(self), run_metrics(self)))
        original_close(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Testbed, "close", close_after_export)
        outcome = run_single(spec)
    ((testbed, processors, exported, again),) = seen
    return spec, Run(testbed, processors, outcome, exported, again)


@pytest.fixture(scope="module")
def twins() -> dict[str, tuple[Run, object]]:
    """Flag set -> (untraced run, traced twin's outcome)."""
    found = {}
    for name, flags in FLAGS.items():
        spec, run = untraced_run(flags)
        found[name] = run, run_single(dataclasses.replace(spec, trace=True))
    return found


class TestExport:
    @pytest.mark.parametrize("flags", list(FLAGS))
    def test_counting_is_always_on(self, twins, flags):
        run, traced = twins[flags]
        assert run.outcome.trace is None and run.outcome.metrics == {}
        assert traced.trace
        assert run.exported == traced.metrics

    @pytest.mark.parametrize("flags", list(FLAGS))
    def test_every_source_is_read(self, twins, flags):
        exported = twins[flags][0].exported
        prefixes = {key.split(".")[0] for key in exported["counters"]}
        assert {"pipeline", "conformance", "assertions", "diagnosis"} <= prefixes
        assert set(exported["histograms"]) == {
            "assertion.duration", "diagnosis.test.duration", "diagnosis.walk.duration",
        }
        if flags == "severe+recover":
            assert {"client", "recovery"} <= prefixes
            assert {"client.retries", "client.consistency_retries",
                    "recovery.runs", "recovery.resumes"} <= set(exported["counters"])

    def test_retired_memo_counters_stay_out(self, twins):
        for run, _ in twins.values():
            assert not [k for k in run.exported["counters"] if k.startswith("classify.")]


class TestInstruments:
    def test_counters_accumulate(self, twins):
        for run, _ in twins.values():
            exported, pod, processors = run.exported, run.testbed.pod, run.processors
            counters = exported["counters"]
            for name, attr in (("filtered", "filtered_count"), ("ingested", "ingested_count"),
                               ("shipped", "shipped_count")):
                assert counters[f"pipeline.records_{name}"] == sum(
                    getattr(p, attr) for p in processors
                )
            results = pod.conformance.results
            assert counters["conformance.compiled.checks"] == len(results)
            assert sum(
                value for key, value in counters.items()
                if key.startswith("conformance.checks.")
            ) == len(results)
            evaluated = len(pod.assertions.results)
            outcomes = [k for k in counters if k.startswith("assertions.outcomes.")]
            assert sum(counters[k] for k in outcomes) == evaluated
            assert exported["histograms"]["assertion.duration"]["count"] == evaluated
            reports = pod.diagnosis.completed
            assert counters["diagnosis.requests"] == len(reports)
            verdicts = [k for k in counters if k.startswith("diagnosis.tests.")]
            assert sum(counters[k] for k in verdicts) == sum(
                not t.cached for r in reports for t in r.tests
            )

    def test_gauge_max_is_high_water_mark(self, twins):
        for run, _ in twins.values():
            service = run.testbed.pod.assertions
            assert service.in_flight == 0
            assert run.exported["gauges"] == {"assertions.in_flight_max": service.in_flight_max}
            assert service.in_flight_max > 1

    def test_histogram_buckets_and_exact_stats(self):
        histogram = Histogram()
        for value in (0.005, 0.2, 400.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == 0.005 + 0.2 + 400.0
        assert (snap["min"], snap["max"]) == (0.005, 400.0)
        assert snap["buckets"]["0.01"] == 1
        assert snap["buckets"]["0.25"] == 1
        assert snap["buckets"]["+Inf"] == 1
        assert sum(snap["buckets"].values()) == 3

    def test_boundary_value_lands_in_its_bucket(self):
        histogram = Histogram()
        histogram.observe(1.0)
        buckets = histogram.snapshot()["buckets"]
        assert (buckets["0.5"], buckets["1.0"], buckets["2.5"]) == (0, 1, 0)


class TestSnapshots:
    def test_snapshot_keys_sorted(self, twins):
        for run, _ in twins.values():
            assert list(run.exported) == ["counters", "gauges", "histograms"]
            for section in run.exported.values():
                assert list(section) == sorted(section)

    def test_idle_testbed_exports_only_its_data_plane(self):
        # ... and the data plane counts nothing.
        testbed = Testbed(cluster_size=4, seed=3)
        assert run_metrics(testbed) == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_identical_operations_identical_snapshots(self, twins):
        # Reading is all the export does: a second read is the same
        # snapshot, in a new dict.
        for run, _ in twins.values():
            assert run.exported_again == run.exported
            assert run.exported_again is not run.exported


class TestMerge:
    def _snap(self, counter: int, gauge: float, values: tuple[float, ...]) -> dict:
        histograms = {}
        if values:
            histogram = Histogram()
            for value in values:
                histogram.observe(value)
            histograms["runs.hist"] = histogram.snapshot()
        return {
            "counters": {"runs.counter": counter},
            "gauges": {"runs.gauge": gauge},
            "histograms": histograms,
        }

    def test_counters_sum_gauges_max_buckets_sum(self):
        merged = merge_snapshots(
            [self._snap(2, 5.0, (0.005,)), self._snap(3, 1.0, (400.0, 0.2))]
        )
        assert merged["counters"]["runs.counter"] == 5
        assert merged["gauges"]["runs.gauge"] == 5.0
        hist = merged["histograms"]["runs.hist"]
        assert hist["count"] == 3
        assert (hist["min"], hist["max"]) == (0.005, 400.0)
        assert hist["buckets"]["0.01"] == 1
        assert hist["buckets"]["0.25"] == 1
        assert hist["buckets"]["+Inf"] == 1

    def test_merge_skips_empty_snapshots(self):
        base = self._snap(1, 1.0, (0.1,))
        assert merge_snapshots([{}, base, {}]) == merge_snapshots([base])

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([]) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_merge_is_associative_over_runs(self):
        a = self._snap(1, 2.0, (0.1, 5.0))
        b = self._snap(4, 9.0, ())
        c = self._snap(2, 3.0, (100.0,))
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    def test_default_buckets_cover_sim_scales(self):
        # Sub-10ms conformance checks and multi-minute convergence waits
        # must land in distinct buckets, not one catch-all.
        assert BUCKETS[0] <= 0.01
        assert BUCKETS[-1] >= 300.0
