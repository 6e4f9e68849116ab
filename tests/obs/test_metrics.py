"""MetricsRegistry: instruments, deterministic snapshots, merging."""

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


class TestInstruments:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("pipeline.records_ingested")
        registry.inc("pipeline.records_ingested", 4)
        counters = registry.snapshot()["counters"]
        assert counters["pipeline.records_ingested"] == 5
        assert "never.touched" not in counters

    def test_gauge_keeps_latest_value(self):
        registry = MetricsRegistry()
        registry.gauge("queue.depth", 3)
        registry.gauge("queue.depth", 1)
        assert registry.snapshot()["gauges"]["queue.depth"] == 1

    def test_gauge_max_is_high_water_mark(self):
        registry = MetricsRegistry()
        registry.gauge_max("assertions.in_flight_max", 2)
        registry.gauge_max("assertions.in_flight_max", 5)
        registry.gauge_max("assertions.in_flight_max", 3)
        assert registry.snapshot()["gauges"]["assertions.in_flight_max"] == 5

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
        histogram = Histogram(buckets=(1.0, 2.0))
        histogram.observe(1.0)
        assert histogram.snapshot()["buckets"] == {"1.0": 1, "2.0": 0, "+Inf": 0}


class TestSnapshots:
    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        for name in ("zebra", "alpha", "mid"):
            registry.inc(name)
            registry.gauge(name, 1.0)
            registry.observe(name, 0.1)
        snap = registry.snapshot()
        for section in ("counters", "gauges", "histograms"):
            assert list(snap[section]) == ["alpha", "mid", "zebra"]

    def test_empty_registry_snapshot(self):
        assert MetricsRegistry().snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_identical_operations_identical_snapshots(self):
        def fill(registry: MetricsRegistry) -> None:
            registry.inc("a", 2)
            registry.gauge_max("g", 7)
            registry.observe("h", 0.3)
            registry.observe("h", 90.0)

        first, second = MetricsRegistry(), MetricsRegistry()
        fill(first)
        fill(second)
        assert first.snapshot() == second.snapshot()


class TestMerge:
    def _snap(self, counter: int, gauge: float, values: tuple[float, ...]) -> dict:
        registry = MetricsRegistry()
        registry.inc("runs.counter", counter)
        registry.gauge_max("runs.gauge", gauge)
        for value in values:
            registry.observe("runs.hist", value)
        return registry.snapshot()

    def test_counters_sum_gauges_max_buckets_sum(self):
        merged = MetricsRegistry.merge(
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
        assert MetricsRegistry.merge([{}, base, {}]) == MetricsRegistry.merge([base])

    def test_merge_of_nothing_is_empty(self):
        assert MetricsRegistry.merge([]) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_merge_is_associative_over_runs(self):
        a = self._snap(1, 2.0, (0.1, 5.0))
        b = self._snap(4, 9.0, ())
        c = self._snap(2, 3.0, (100.0,))
        left = MetricsRegistry.merge([MetricsRegistry.merge([a, b]), c])
        right = MetricsRegistry.merge([a, MetricsRegistry.merge([b, c])])
        assert left == right

    def test_default_buckets_cover_sim_scales(self):
        # Sub-10ms conformance checks and multi-minute convergence waits
        # must land in distinct buckets, not one catch-all.
        assert DEFAULT_BUCKETS[0] <= 0.01
        assert DEFAULT_BUCKETS[-1] >= 300.0
