"""Benchmark harness: corpus determinism, artifacts, regression gate."""

import json

import pytest

from repro.evaluation.bench import (
    HIGHER,
    LOWER,
    artifact_path,
    bench_matching,
    compare_to_baseline,
    render_results,
    synthesize_corpus,
    write_artifacts,
)


class TestCorpus:
    def test_deterministic_for_a_seed(self):
        assert synthesize_corpus(500, seed=3) == synthesize_corpus(500, seed=3)
        assert synthesize_corpus(500, seed=3) != synthesize_corpus(500, seed=4)

    def test_mix_contains_matches_and_noise(self):
        from repro.operations.rolling_upgrade import build_pattern_library

        library = build_pattern_library()
        corpus = synthesize_corpus(500, seed=7)
        matched = sum(1 for line in corpus if library.classify(line).matched)
        assert 0.25 < matched / len(corpus) < 0.75


class TestBenchMatching:
    def test_small_run_produces_gated_ratios(self):
        result = bench_matching(lines=300, repeat=1)
        assert result["name"] == "matching"
        assert set(result["gate"]) == {"classify_once_speedup", "prefilter_speedup"}
        metrics = result["metrics"]
        assert metrics["lines"] == 300
        for key in result["gate"]:
            assert metrics[key] > 0
        # Classify-once must beat four naive scans even on a tiny corpus.
        assert metrics["classify_once_speedup"] > 1.0


class TestBenchConformance:
    def test_small_run_gates_interpreted_vs_compiled_only(self):
        from repro.evaluation.bench import bench_conformance

        result = bench_conformance(traces=20, repeat=1)
        assert result["name"] == "conformance"
        assert set(result["gate"]) == {"compiled_replay_speedup"}
        assert result["floors"] == {"compiled_replay_speedup": 3.0}
        metrics = result["metrics"]
        assert set(metrics) == {
            "checks", "interpreted_checks_per_sec", "checks_per_sec",
            "mean_latency_us", "compiled_replay_speedup",
        }
        assert metrics["checks"] == 20 * 12
        assert metrics["compiled_replay_speedup"] > 0


class TestOnlySelection:
    def test_only_runs_the_named_benchmark(self):
        from repro.evaluation.bench import run_benchmarks

        results = run_benchmarks(quick=True, only=["matching"])
        assert [r["name"] for r in results] == ["matching"]

    def test_only_preserves_suite_order_and_dedups(self):
        from repro.evaluation.bench import run_benchmarks

        results = run_benchmarks(
            quick=True, only=["conformance", "matching", "matching"]
        )
        assert [r["name"] for r in results] == ["matching", "conformance"]

    def test_unknown_name_raises_with_valid_names(self):
        from repro.evaluation.bench import BENCHMARKS, run_benchmarks

        with pytest.raises(ValueError) as excinfo:
            run_benchmarks(quick=True, only=["nope"])
        message = str(excinfo.value)
        assert "nope" in message
        for name in BENCHMARKS:
            assert name in message


class TestBenchCloud:
    def test_small_run_produces_gated_ratios(self):
        from repro.evaluation.bench import bench_cloud

        result = bench_cloud(
            history_writes=50,
            reads=200,
            region_small=8,
            region_large=32,
            ticks=8,
            writes_per_tick=4,
            repeat=1,
        )
        assert result["name"] == "cloud"
        assert set(result["gate"]) == {
            "stale_read_speedup",
            "monitor_tick_ratio",
            "monitor_tick_speedup",
            "snapshot_shared_fraction",
        }
        metrics = result["metrics"]
        # Reference-returning bisect reads must beat linear scan + deepcopy
        # even on a tiny history.
        assert metrics["stale_read_speedup"] > 1.0
        # Delta ticks must beat full-region deep copies ...
        assert metrics["monitor_tick_speedup"] > 1.0
        # ... and scale with the (fixed) write rate, not the 4x region.
        assert metrics["monitor_tick_ratio"] < 4.0
        assert 0.0 < metrics["snapshot_shared_fraction"] < 1.0


def _result(name="matching", gate=None, floors=None, **metrics):
    result = {"name": name, "metrics": metrics, "gate": gate or {}}
    if floors:
        result["floors"] = floors
    return result


class TestArtifacts:
    def test_round_trip(self, tmp_path):
        result = _result(speedup=3.4, gate={"speedup": HIGHER})
        (path,) = write_artifacts([result], str(tmp_path))
        assert path == artifact_path(str(tmp_path), "matching")
        with open(path) as handle:
            assert json.load(handle) == result


class TestGate:
    def _baseline(self, tmp_path, **metrics):
        write_artifacts(
            [_result(gate={k: HIGHER for k in metrics}, **metrics)], str(tmp_path)
        )

    def test_missing_baseline_is_a_note_not_a_failure(self, tmp_path):
        regressions, notes = compare_to_baseline(
            [_result(speedup=1.0, gate={"speedup": HIGHER})], str(tmp_path)
        )
        assert regressions == []
        assert len(notes) == 1 and "no baseline" in notes[0]

    def test_within_tolerance_passes(self, tmp_path):
        self._baseline(tmp_path, speedup=4.0)
        current = _result(speedup=3.2, gate={"speedup": HIGHER})  # -20%
        regressions, _notes = compare_to_baseline([current], str(tmp_path), tolerance=0.25)
        assert regressions == []

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        self._baseline(tmp_path, speedup=4.0)
        current = _result(speedup=2.5, gate={"speedup": HIGHER})  # -37%
        regressions, _notes = compare_to_baseline([current], str(tmp_path), tolerance=0.25)
        assert len(regressions) == 1
        assert "matching.speedup" in regressions[0]

    def test_improvement_always_passes(self, tmp_path):
        self._baseline(tmp_path, speedup=4.0)
        current = _result(speedup=9.0, gate={"speedup": HIGHER})
        assert compare_to_baseline([current], str(tmp_path))[0] == []

    def test_lower_direction_gates_increases(self, tmp_path):
        write_artifacts(
            [_result(latency=10.0, gate={"latency": LOWER})], str(tmp_path)
        )
        ok = _result(latency=12.0, gate={"latency": LOWER})  # +20%
        bad = _result(latency=14.0, gate={"latency": LOWER})  # +40%
        assert compare_to_baseline([ok], str(tmp_path), tolerance=0.25)[0] == []
        assert len(compare_to_baseline([bad], str(tmp_path), tolerance=0.25)[0]) == 1

    def test_ungated_metrics_never_fail(self, tmp_path):
        self._baseline(tmp_path, speedup=4.0)
        # Absolute throughput collapses, but it is not in the gate.
        current = _result(speedup=4.0, lines_per_sec=1.0, gate={"speedup": HIGHER})
        assert compare_to_baseline([current], str(tmp_path))[0] == []

    def test_metric_missing_from_baseline_is_a_note(self, tmp_path):
        self._baseline(tmp_path, speedup=4.0)
        current = _result(brand_new=1.0, gate={"brand_new": HIGHER})
        regressions, notes = compare_to_baseline([current], str(tmp_path))
        assert regressions == []
        assert any("brand_new" in note for note in notes)


class TestFloors:
    """Absolute minima: no tolerance, no baseline required."""

    def test_floor_enforced_without_any_baseline(self, tmp_path):
        current = _result(parallel_speedup=0.85, floors={"parallel_speedup": 1.0})
        regressions, _notes = compare_to_baseline([current], str(tmp_path))
        assert len(regressions) == 1
        assert "below the absolute floor" in regressions[0]
        assert "matching.parallel_speedup" in regressions[0]

    def test_floor_ignores_tolerance(self, tmp_path):
        # 0.99 is within any reasonable relative tolerance of 1.0, but a
        # floor is absolute: below is below.
        current = _result(parallel_speedup=0.99, floors={"parallel_speedup": 1.0})
        regressions, _ = compare_to_baseline([current], str(tmp_path), tolerance=0.25)
        assert len(regressions) == 1

    def test_meeting_the_floor_passes(self, tmp_path):
        current = _result(
            compiled_replay_speedup=3.0,
            floors={"compiled_replay_speedup": 3.0},
        )
        regressions, _ = compare_to_baseline([current], str(tmp_path))
        assert regressions == []

    def test_missing_floored_metric_is_a_note(self, tmp_path):
        current = _result(other=1.0, floors={"ghost": 2.0})
        regressions, notes = compare_to_baseline([current], str(tmp_path))
        assert regressions == []
        assert any("ghost" in note and "skipped" in note for note in notes)

    def test_floor_and_gate_compose(self, tmp_path):
        # A metric can clear its floor yet still regress against the
        # committed baseline — both checks apply.
        write_artifacts(
            [_result(speedup=6.0, gate={"speedup": HIGHER})], str(tmp_path)
        )
        current = _result(
            speedup=3.5, gate={"speedup": HIGHER}, floors={"speedup": 3.0}
        )  # above floor, -42% vs baseline
        regressions, _ = compare_to_baseline([current], str(tmp_path), tolerance=0.25)
        assert len(regressions) == 1
        assert "baseline" in regressions[0]

    def test_rendering_shows_floor(self):
        text = render_results(
            [_result(parallel_speedup=1.0, floors={"parallel_speedup": 1.0})]
        )
        assert "(floor 1)" in text
        assert "floors are absolute" in text


class TestRendering:
    def test_gated_metrics_are_marked(self):
        text = render_results([_result(speedup=3.415, plain=2, gate={"speedup": HIGHER})])
        assert "* speedup" in text.replace("  ", " ")
        assert "3.42" in text or "3.41" in text
        assert "plain" in text


class TestCli:
    def test_bench_quick_exits_zero_without_baseline(self, tmp_path, capsys):
        pytest.importorskip("repro.cli")
        # Exercised end-to-end (slow path) in CI's bench job; here only
        # the wiring: parser accepts the flags and the gate math runs.
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--quick", "--out", str(tmp_path), "--baseline", str(tmp_path)]
        )
        assert args.func.__name__ == "_cmd_bench"
        assert args.tolerance == 0.25

    def test_only_flag_repeats(self):
        pytest.importorskip("repro.cli")
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["bench", "--only", "conformance", "--only", "matching"]
        )
        assert args.only == ["conformance", "matching"]

    def test_unknown_only_name_exits_two(self, tmp_path, capsys):
        pytest.importorskip("repro.cli")
        from repro.cli import main

        # A name that is not in BENCHMARKS, even one that once was.
        code = main(["bench", "--quick", "--out", str(tmp_path), "--only", "pipeline"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err
