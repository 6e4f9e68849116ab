"""``tools/bench_pairs.py`` on stub checkouts.

Each stub is a directory with ``BENCHMARK.json`` and a
``benchmarks/e2e/run.py`` that replays scripted results, so the driver's
own work is what runs: the subprocess call, the alternation, the refusal
and the verdict rule.
"""

import importlib.util
import json
import pathlib
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.15},
]
OPS_PER_S, _OP_MS_P50, PEAK_RSS = END_TO_END

STUB_RUN = textwrap.dedent('''
    """Replays scripted.json: one entry per invocation, in order."""
    import argparse, json, pathlib, time

    here = pathlib.Path(__file__).resolve().parent
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--trace")
    parser.add_argument("--seed")
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args()
    assert args.trace == "0"
    script = json.loads((here / "scripted.json").read_text())
    calls = here / "calls.jsonl"
    index = len(calls.read_text().splitlines()) if calls.exists() else 0
    with open(calls, "a") as log:
        log.write(json.dumps({"at": time.monotonic_ns(), "seed": args.seed}) + "\\n")
    entry = script[index]
    args.out.mkdir(parents=True)
    (args.out / "results.json").write_text(json.dumps({"workloads": {args.workload: {
        "digests": entry.get("digests", {"r0": "abc"}),
        "raw": {
            "ops_per_s": entry.get("raw_ops_per_s", entry["metrics"]["ops_per_s"]),
            "host_rate": {"p50": entry.get("host_rate", 6.2e5)},
        },
    }}}))
    print("== human-readable report ==")
    print(json.dumps({
        "correct": entry.get("correct", True), "attempted": 100,
        "failed": entry.get("failed", 0),
        "metrics": {name: {"value": value, "unit": "u"} for name, value in entry["metrics"].items()},
    }))
''')


def checkout(path: pathlib.Path, script: list[dict]) -> pathlib.Path:
    e2e = path / "benchmarks" / "e2e"
    e2e.mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    (e2e / "run.py").write_text(STUB_RUN)
    (e2e / "scripted.json").write_text(json.dumps(script))
    return path


def runs(ops_per_s: list[float], **extra) -> list[dict]:
    return [
        {"metrics": {"ops_per_s": v, "op_ms_p50": 1000 / v, "peak_rss_mb": 40.0}, **extra}
        for v in ops_per_s
    ]


def calls(path: pathlib.Path) -> list[dict]:
    log = path / "benchmarks" / "e2e" / "calls.jsonl"
    return [json.loads(line) for line in log.read_text().splitlines()]


def verdicts(out: str) -> dict[str, str]:
    """metric -> verdict, off the summary table."""
    names = {metric["name"] for metric in END_TO_END}
    return {
        line.split()[0]: line.split()[-1]
        for line in out.splitlines() if line.split() and line.split()[0] in names
    }


PARENT_RUNS = [44.1, 43.2, 45.0, 44.4, 43.8, 44.9, 43.5, 44.6, 44.0, 44.3]


def test_two_copies_of_one_tree_resolve_nothing_as_better(tmp_path, capsys):
    """The self-test: the same numbers in another order are not a gain."""
    parent = checkout(tmp_path / "a", runs(PARENT_RUNS))
    change = checkout(tmp_path / "b", runs(PARENT_RUNS[3:] + PARENT_RUNS[:3]))
    code = bench_pairs.main(
        [str(parent), str(change), "--workload", "campaign_paper", "--pairs", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert set(verdicts(out).values()) == {"same"}
    assert "outcome digests are identical" in out


def test_sides_alternate_and_never_overlap(tmp_path, capsys):
    parent = checkout(tmp_path / "a", runs(PARENT_RUNS[:4]))
    change = checkout(tmp_path / "b", runs(PARENT_RUNS[:4]))
    bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "4", "--seed", "7"])
    out = capsys.readouterr().out
    firsts = [line.split("(")[1].split()[0] for line in out.splitlines() if line.startswith("pair")]
    assert firsts == ["parent", "change", "parent", "change"]
    a, b = calls(parent), calls(change)
    assert {call["seed"] for call in a + b} == {"7"}
    # Pair k: the side that goes first started before the other.
    assert [x["at"] < y["at"] for x, y in zip(a, b)] == [True, False, True, False]


def test_a_gain_beyond_the_parents_spread_is_better():
    row = bench_pairs.judge(OPS_PER_S, PARENT_RUNS, [v * 1.2 for v in PARENT_RUNS])
    assert row["verdict"] == "better"
    assert row["wins"] == {"change": 10, "parent": 0, "tie": 0}
    assert row["change_of_median"] == pytest.approx(0.2)
    flat = bench_pairs.judge(PEAK_RSS, [40.0] * 10, [40.0] * 10)
    assert flat["verdict"] == "same" and flat["wins"]["tie"] == 10


def test_eight_wins_of_ten_is_not_a_gain():
    faster = [v * 1.2 for v in PARENT_RUNS]
    faster[2], faster[7] = PARENT_RUNS[2] * 0.99, PARENT_RUNS[7] * 0.99
    assert bench_pairs.judge(OPS_PER_S, PARENT_RUNS, faster)["verdict"] == "same"


def test_a_gain_inside_the_parents_spread_is_not_a_gain():
    wide = [30.0, 60.0, 35.0, 55.0, 40.0, 50.0, 45.0, 33.0, 58.0, 44.0]
    row = bench_pairs.judge(OPS_PER_S, wide, [v * 1.05 for v in wide])
    assert row["wins"]["change"] == 10
    assert row["verdict"] == "unresolved"  # the quartiles are further apart than the bound


def test_a_loss_beyond_the_bound_fails(tmp_path, capsys):
    parent = checkout(tmp_path / "a", runs(PARENT_RUNS[:3]))
    change = checkout(tmp_path / "b", runs([v * 0.7 for v in PARENT_RUNS[:3]]))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3"]) == 1
    out = capsys.readouterr().out
    assert verdicts(out) == {"ops_per_s": "worse", "op_ms_p50": "worse", "peak_rss_mb": "same"}
    assert "FAIL: ops_per_s is worse by more than its bound" in out


@pytest.mark.parametrize("flaw", [{"failed": 3}, {"correct": False}])
def test_a_failed_or_incorrect_run_is_refused(tmp_path, capsys, flaw):
    parent = checkout(tmp_path / "a", runs(PARENT_RUNS[:2]))
    change = checkout(tmp_path / "b", runs(PARENT_RUNS[:1]) + runs(PARENT_RUNS[1:2], **flaw))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 1
    captured = capsys.readouterr()
    assert "refused" in captured.err
    assert "verdict" not in captured.out  # no table over a refused run


def raw_lines(out: str) -> dict[str, str]:
    """label -> line, of the unscaled readings under the table."""
    return {line.split()[0]: line for line in out.splitlines() if line.startswith("  raw.")}


def test_raw_readings_are_printed_per_side(tmp_path, capsys):
    parent = checkout(tmp_path / "a", runs(PARENT_RUNS[:4], raw_ops_per_s=60.0, host_rate=6.0e5))
    change = checkout(tmp_path / "b", runs(PARENT_RUNS[:4], raw_ops_per_s=66.0, host_rate=6.0e5))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "4"]) == 0
    out = capsys.readouterr().out
    lines = raw_lines(out)
    assert "parent 60 [60, 60]" in lines["raw.ops_per_s"]
    assert "change 66 [66, 66]" in lines["raw.ops_per_s"] and "+10.00%" in lines["raw.ops_per_s"]
    assert "parent 6e+05" in lines["raw.host_rate.p50"] and "+0.00%" in lines["raw.host_rate.p50"]
    # Equal rates on both sides: the scaling assumption holds, no warning.
    assert "WARNING" not in out


def scripted_rates(parent_rates: list[float], change_rates: list[float], tmp_path):
    """Two stub checkouts whose runs differ only in the calibration rate."""
    sides = []
    for name, rates in (("a", parent_rates), ("b", change_rates)):
        script = [dict(run, host_rate=rate) for run, rate in zip(runs(PARENT_RUNS), rates)]
        sides.append(str(checkout(tmp_path / name, script)))
    return sides


def test_calibration_rates_that_differ_with_one_sign_are_warned_about(tmp_path, capsys):
    # The change's bursts stop absorbing collector passes: +3 % in 9 of 10 pairs.
    parent_rates = [6.20e5, 6.18e5, 6.22e5, 6.19e5, 6.21e5, 6.20e5, 6.17e5, 6.23e5, 6.20e5, 6.19e5]
    change_rates = [rate * 1.03 for rate in parent_rates]
    change_rates[4] = parent_rates[4] * 0.99
    sides = scripted_rates(parent_rates, change_rates, tmp_path)
    assert bench_pairs.main([*sides, "--workload", "w", "--pairs", "10"]) == 0  # a warning, not a failure
    out = capsys.readouterr().out
    assert "WARNING: the change's calibration rate is the higher in 9 of 10 pairs" in out
    assert "+2.92%" in raw_lines(out)["raw.host_rate.p50"]


def test_calibration_rates_that_differ_either_way_are_not(tmp_path, capsys):
    parent_rates = [6.20e5, 6.18e5, 6.22e5, 6.19e5, 6.21e5, 6.20e5, 6.17e5, 6.23e5, 6.20e5, 6.19e5]
    change_rates = [rate * (1.03 if i % 5 else 0.97) for i, rate in enumerate(parent_rates)]  # 8 up, 2 down
    sides = scripted_rates(parent_rates, change_rates, tmp_path)
    assert bench_pairs.main([*sides, "--workload", "w", "--pairs", "10"]) == 0
    assert "WARNING" not in capsys.readouterr().out


def test_a_moved_digest_fails(tmp_path, capsys):
    parent = checkout(tmp_path / "a", runs(PARENT_RUNS[:2]))
    change = checkout(tmp_path / "b", runs(PARENT_RUNS[:2], digests={"r0": "moved"}))
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 1
    assert "FAIL: outcome digests differ" in capsys.readouterr().out
