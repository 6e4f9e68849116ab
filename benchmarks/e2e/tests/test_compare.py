"""Verdicts of ``compare.py`` on hand-made results."""

import compare

OPS = {"name": "ops_per_s", "unit": "op/s", "better": "higher", "bound": 0.10}
RECALL = {"name": "detect_recall", "unit": "fraction", "better": "higher", "bound": 0.05}


def report(throughputs, recall=1.0, keys=None):
    keys = keys or [f"seed-{i}" for i in range(len(throughputs))]
    rounds = [
        {"key": key, "ops_per_s": value, "op_ms_p50": 1.0, "op_ms_p90": 2.0}
        for key, value in zip(keys, throughputs)
    ]
    median = sorted(throughputs)[len(throughputs) // 2]
    return {"rounds": rounds, "end_to_end": {"ops_per_s": median, "detect_recall": recall}}


def verdict(a, b, metric=OPS):
    return compare.judge(a, b, metric)[3]


def test_steady_rounds_resolve_small_and_large_changes():
    base = report([100.0, 101.0, 102.0])
    assert verdict(base, report([100.5, 101.5, 102.5])) == "unchanged"
    assert verdict(base, report([80.0, 81.0, 82.0])) == "worse"
    assert verdict(base, report([110.0, 111.0, 112.0])) == "better"
    assert verdict(base, report([95.0, 96.0, 97.0])) == "unchanged"  # within the bound


def test_noisy_rounds_are_unresolved_unless_every_round_agrees():
    noisy = report([80.0, 100.0, 120.0])
    assert verdict(noisy, report([82.0, 97.0, 125.0])) == "unresolved"
    assert verdict(noisy, report([60.0, 70.0, 80.0])) == "worse"       # every paired round loses
    assert verdict(noisy, report([90.0, 110.0, 130.0])) == "better"    # every paired round wins


def test_rounds_with_the_same_inputs_are_compared_all_against_all():
    keys = ["episodes"] * 3
    noisy = report([80.0, 100.0, 120.0], keys=keys)
    assert verdict(noisy, report([90.0, 110.0, 130.0], keys=keys)) == "unresolved"
    assert verdict(noisy, report([121.0, 130.0, 140.0], keys=keys)) == "better"


def test_simulated_statistics_are_exact():
    assert verdict(report([1.0]), report([1.0]), RECALL) == "unchanged"
    assert verdict(report([1.0]), report([1.0], recall=0.99), RECALL) == "worse"
    assert verdict(report([1.0], recall=0.99), report([1.0]), RECALL) == "better"
