#!/usr/bin/env python3
"""Compare two sets of runs: ``compare.py A/results.json B/results.json``.

One row per (workload, end-to-end metric): both values with their
quartiles where the run has several samples (timed rounds, set-ups), the
change as a share of A, the metric's bound from ``BENCHMARK.json`` and a
verdict:

- ``worse``      B is worse than A by more than the bound;
- ``better``     B is better than A by more than the spread of the rounds;
- ``unchanged``  neither, and the rounds' spread is within the bound;
- ``unresolved`` the spread of the rounds (``harness.round_spread``, taken
  per metric) exceeds the bound, so a change of the bound's size cannot be
  told from noise — unless every round of one side beats every round of
  the other that was given the same inputs.

The simulated statistics (``detect_*``, ``verdict_accuracy``) are exact on
one seed: any difference is ``better`` or ``worse``.  A run with a failed
op writes no results, so neither side has one.  Exits 1 on any ``worse``
or on any changed outcome digest, 2 when the two files cannot be compared.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from stats import quartiles, spread  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: End-to-end metrics with one value per timed round.
PER_ROUND = ("ops_per_s", "op_ms_p50", "op_ms_p90")
#: Deterministic per seed: compared exactly.
EXACT = ("detect_recall", "detect_precision", "verdict_accuracy")


def samples(report: dict, metric: str) -> list[float]:
    """Every sample one run holds of a metric (one value if it has no more)."""
    if metric in PER_ROUND:
        return [round_[metric] for round_ in report["rounds"]]
    if metric == "setup_s":
        return [sample["setup_s"] for sample in report["setup_samples"]]
    return [report["end_to_end"][metric]]


def keyed_rounds(report: dict, metric: str) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = {}
    for round_ in report["rounds"]:
        grouped.setdefault(round_["key"], []).append(round_[metric])
    return grouped


def separated(a: dict, b: dict, metric: str, higher_is_better: bool) -> str | None:
    """"better"/"worse" if every B round beats/loses to every A round with
    the same inputs, else None."""
    a_rounds, b_rounds = keyed_rounds(a, metric), keyed_rounds(b, metric)
    pairs = [
        (x, y) for key in a_rounds.keys() & b_rounds.keys()
        for x in a_rounds[key] for y in b_rounds[key]
    ]
    if not pairs:
        return None
    if all((y > x) == higher_is_better and y != x for x, y in pairs):
        return "better"
    if all((y < x) == higher_is_better and y != x for x, y in pairs):
        return "worse"
    return None


def judge(a: dict, b: dict, metric: dict) -> tuple[float, float, float, str]:
    """(A value, B value, B's worsening as a share of A, verdict)."""
    name, bound = metric["name"], metric["bound"]
    higher_is_better = metric["better"] == "higher"
    value_a, value_b = a["end_to_end"][name], b["end_to_end"][name]
    change = (value_b - value_a) / value_a
    worse_by = -change if higher_is_better else change
    if name in EXACT:
        verdict = "unchanged" if value_a == value_b else ("worse" if worse_by > 0 else "better")
        return value_a, value_b, change, verdict
    samples_a, samples_b = samples(a, name), samples(b, name)
    noise = max(spread(samples_a), spread(samples_b))
    if min(len(samples_a), len(samples_b)) < 2:
        noise = bound  # one sample a side: nothing smaller than the bound resolves
    if noise > bound:
        apart = separated(a, b, name, higher_is_better) if name in PER_ROUND else None
        if apart == "better" or (apart == "worse" and worse_by > bound):
            return value_a, value_b, change, apart
        return value_a, value_b, change, "unresolved"
    if worse_by > bound:
        verdict = "worse"
    elif -worse_by > noise:
        verdict = "better"
    else:
        verdict = "unchanged"
    return value_a, value_b, change, verdict


def _cell(value: float, values: list[float]) -> str:
    if len(values) < 2:
        return f"{value:.5g}"
    low, _median, high = quartiles(values)
    return f"{value:.5g} [{low:.5g}, {high:.5g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    for field in ("seed", "quick", "seconds"):
        if a["host"][field] != b["host"][field]:
            print(f"cannot compare: {field} differs"
                  f" ({a['host'][field]!r} vs {b['host'][field]!r})", file=sys.stderr)
            return 2
    if a["host"]["quick"]:
        print("cannot compare: --quick runs are schema smokes, not measurements", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A = {argv[0]}  (commit {a['host']['git_commit']})")
    print(f"B = {argv[1]}  (commit {b['host']['git_commit']})")
    print(f"seed {a['host']['seed']}; change = (B - A) / A;"
          " value [quartiles of the per-round or per-set-up values] n\n")
    header = ("workload", "metric", "A", "B", "change (of A)", "bound", "verdict")
    rows = [header]
    failures = []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        report_a, report_b = a["workloads"][name], b["workloads"][name]
        if "end_to_end" not in report_a or "end_to_end" not in report_b:
            continue
        for metric in spec["end_to_end"]:
            value_a, value_b, change, verdict = judge(report_a, report_b, metric)
            rows.append((
                name, metric["name"],
                _cell(value_a, samples(report_a, metric["name"])),
                _cell(value_b, samples(report_b, metric["name"])),
                f"{change:+.2%}", f"{metric['bound']:.0%}", verdict,
            ))
            if verdict == "worse":
                failures.append(f"{name}.{metric['name']} is worse by more than its bound")
        for key in sorted(report_a["digests"].keys() & report_b["digests"].keys()):
            if report_a["digests"][key] != report_b["digests"][key]:
                failures.append(f"{name}: outcome digest of {key!r} changed")
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print()
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("no metric is worse by more than its bound; outcome digests are identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
