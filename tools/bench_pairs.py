#!/usr/bin/env python3
"""Alternating parent/change pairs of one ledger workload.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S]

Each pair runs both checkouts' *own* ``benchmarks/e2e/run.py --workload W
--trace 0`` one after the other, never at once, and alternates which side
goes first (parent change / change parent / ...), so drift of a shared
host lands on both sides.  A run that reports ``correct: false`` or a
failed op is refused: the pairs would compare different work.

Printed: the winner of every pair on each end-to-end metric of
``BENCHMARK.json``, both sides' median and quartiles over the pairs,
wins out of pairs, whether the outcome digests agree, and a verdict:

- ``better``     the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's own quartiles;
- ``worse``      the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved`` the parent's quartiles are further apart than the bound,
  so a change of the bound's size cannot be told from noise (``worse``
  then needs the parent to win every pair as well);
- ``same``       none of the above.

Below the table, as the clock read it: each side's ``raw.ops_per_s`` and
``raw.host_rate.p50`` from ``results.json``.  The end-to-end timings are
scaled by the host's calibration rate, which assumes the calibration
kernel runs the same on both sides; it allocates containers, so a change
to how much the collector has to do moves the rate itself.  When one
side's rate is the higher in at least nine tenths of the pairs a warning
says so, and the scaled timings should be read beside the raw ones.

Exits 1 on a refused run, a ``worse`` metric or a changed digest.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


class Refused(Exception):
    """A run whose numbers must not be compared (message says why)."""


def run_side(checkout: pathlib.Path, workload: str, seed: int, out: pathlib.Path) -> dict:
    """One ``run.py`` of one checkout: ``{"metrics": {name: value}, "digests": {...},
    "raw": {"ops_per_s": ..., "host_rate_p50": ...}}``."""
    command = [
        sys.executable, str(checkout / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--trace", "0", "--seed", str(seed), "--out", str(out),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise Refused(f"{checkout}: run.py exited with code {done.returncode}")
    verdict = json.loads(done.stdout.splitlines()[-1])
    if not verdict["correct"] or verdict["failed"] > 0:
        raise Refused(
            f"{checkout}: correct={verdict['correct']}, failed {verdict['failed']}"
            f" of {verdict['attempted']} ops"
        )
    report = json.loads((out / "results.json").read_text())["workloads"][workload]
    return {
        "metrics": {name: entry["value"] for name, entry in verdict["metrics"].items()},
        "digests": report["digests"],
        "raw": {
            "ops_per_s": report["raw"]["ops_per_s"],
            "host_rate_p50": report["raw"]["host_rate"]["p50"],
        },
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``benchmarks/e2e/stats.py``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def winner(metric: dict, parent: float, change: float) -> str:
    if parent == change:
        return "tie"
    return "change" if (change > parent) == (metric["better"] == "higher") else "parent"


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The summary row of one metric over all pairs."""
    wins = [winner(metric, p, c) for p, c in zip(parent, change)]
    p_low, p_median, p_high = quartiles(parent)
    c_low, c_median, c_high = quartiles(change)
    delta = c_median - p_median
    worse_by = (-delta if metric["better"] == "higher" else delta) / p_median if p_median else 0.0
    noisy = bool(p_median) and (p_high - p_low) / p_median > metric["bound"]
    if (
        wins.count("change") >= 0.9 * len(wins)
        and winner(metric, p_median, c_median) == "change"
        and abs(delta) > p_high - p_low
    ):
        verdict = "better"
    elif worse_by > metric["bound"] and (not noisy or wins.count("parent") == len(wins)):
        verdict = "worse"
    elif noisy:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": (p_median, p_low, p_high),
        "change": (c_median, c_low, c_high),
        "change_of_median": delta / p_median if p_median else 0.0,
        "wins": {side: wins.count(side) for side in (*SIDES, "tie")},
        "verdict": verdict,
    }


def raw_lines(runs: list[dict[str, dict]]) -> list[str]:
    """The unscaled readings of both sides, and the calibration warning."""
    lines = ["as the clock read (not scaled by the host rate), median [q1, q3]:"]
    readings = {
        key: [[run[side]["raw"][key] for run in runs] for side in SIDES]
        for key in ("ops_per_s", "host_rate_p50")
    }
    for label, (parent, change) in zip(("raw.ops_per_s", "raw.host_rate.p50"), readings.values()):
        (p_low, p_median, p_high), (c_low, c_median, c_high) = quartiles(parent), quartiles(change)
        lines.append(
            f"  {label:<18}parent {p_median:.5g} [{p_low:.5g}, {p_high:.5g}]"
            f"  change {c_median:.5g} [{c_low:.5g}, {c_high:.5g}]"
            f"  {(c_median - p_median) / p_median if p_median else 0.0:+.2%}"
        )
    rates = list(zip(*readings["host_rate_p50"]))  # (parent, change) per pair
    higher = sum(c > p for p, c in rates)
    lower = sum(c < p for p, c in rates)
    if max(higher, lower) >= 0.9 * len(runs):
        lines.append(
            f"WARNING: the change's calibration rate is the {'higher' if higher > lower else 'lower'}"
            f" in {max(higher, lower)} of {len(runs)} pairs: the two sides were scaled by different"
            " host rates, so read the scaled timings beside raw.ops_per_s"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    end_to_end = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}")
    for side in SIDES:
        print(f"  {side} = {checkouts[side]}")
    runs: list[dict[str, dict]] = []  # per pair: side -> run_side()
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            try:
                run = {
                    side: run_side(checkouts[side], args.workload, args.seed,
                                   pathlib.Path(scratch) / f"{pair}-{side}")
                    for side in order
                }
            except Refused as exc:
                print(f"refused: {exc}", file=sys.stderr)
                return 1
            runs.append(run)
            cells = []
            for metric in end_to_end:
                p, c = (run[side]["metrics"][metric["name"]] for side in SIDES)
                cells.append(f"{metric['name']} {p:.5g} | {c:.5g} {winner(metric, p, c)}")
            print(f"pair {pair + 1:2d} ({order[0]} first): " + ";  ".join(cells), flush=True)

    header = ("metric", "parent median [q1, q3]", "change median [q1, q3]", "change",
              "wins change/parent/tie", "bound", "verdict")
    rows = [header]
    failures = []
    for metric in end_to_end:
        name = metric["name"]
        parent, change = ([run[side]["metrics"][name] for run in runs] for side in SIDES)
        row = judge(metric, parent, change)
        rows.append((
            name,
            "{:.5g} [{:.5g}, {:.5g}]".format(*row["parent"]),
            "{:.5g} [{:.5g}, {:.5g}]".format(*row["change"]),
            f"{row['change_of_median']:+.2%}",
            "{change}/{parent}/{tie} of {n}".format(n=args.pairs, **row["wins"]),
            f"{metric['bound']:.0%}",
            row["verdict"],
        ))
        if row["verdict"] == "worse":
            failures.append(f"{name} is worse by more than its bound")
    print()
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print()
    print("\n".join(raw_lines(runs)))
    print()
    digests = {json.dumps(run[side]["digests"], sort_keys=True) for run in runs for side in SIDES}
    if len(digests) == 1:
        print("outcome digests are identical on both sides in every pair")
    else:
        failures.append("outcome digests differ between the sides (or between pairs)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
