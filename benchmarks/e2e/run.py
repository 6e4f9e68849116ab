#!/usr/bin/env python3
"""The performance ledger: one command, every metric, every workload.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 2014]
                                  [--seconds N] [--trace 0|1] [--out DIR] [--quick]

Per workload the runner spawns one child process (never two at once):
set-up, one untimed warm-up, the timed rounds, a repeat of the warm-up
(its digest must not move) and — unless ``--trace 0`` — one round under
boundary spans (``spans.py``).  Two more children only set up, so that
``setup_s`` is a median of three.  The parent prints every metric by name
with its unit, writes ``results.json`` + ``trace.json`` + one line of
``history.jsonl`` under ``--out``, and ends with one JSON line per
workload: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics, neither flag both.  End-to-end numbers never come from the
traced round.

The program under test is imported from ``src/`` of the checkout this
file lives in; without it the child fails and so does the run.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Whole-invocation budget; the benchmark contract allows 180 s.
DEADLINE_S = 170.0
#: Children that only set up, beside the measuring child.
EXTRA_SETUPS = 2
#: The driver-facing value for a metric whose boundary no longer resolves
#: (``results.json`` holds null and the warning).
UNRESOLVED = -1.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float,
                        help="scales the round counts (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out",
                        help="directory for results.json, trace.json, history.jsonl")
    parser.add_argument("--quick", action="store_true",
                        help="schema smoke: 1 round, ~1/8 ops; numbers are never compared")
    # Child-process plumbing.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the child: one workload, one process ----------------------------------------


def peak_rss_mb() -> float:
    """High-water RSS of this process, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux folds the forking parent's
    RSS into the child's ``ru_maxrss`` across exec, so after a few
    workloads the runner's own size would be read as the child's peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _round_record(result) -> dict:
    from stats import percentile

    op_ms = result.op_ms
    return {
        "key": result.key,
        "ops": result.ops,
        "ops_per_s": result.ops / result.norm_wall_s,
        "op_ms_p50": percentile(op_ms, 0.5),
        "op_ms_p90": percentile(op_ms, 0.9),
        "raw_wall_s": result.wall_s,
        "raw_ops_per_s": result.ops / result.wall_s,
        "host_rate_p50": percentile(result.host_rates, 0.5),
        "crashed": result.crashed,
        "digest": result.digest,
    }


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import spans
    import workloads
    from stats import percentile, quartiles, spread

    workload = workloads.make(args.child, args.seed, args.quick)
    workload.setup()
    warmup = workload.warmup()
    # Set-up is scaled to the reference host speed like every other time.
    speed = percentile(warmup.host_rates, 0.5) / workloads.CALIBRATION_REFERENCE
    raw_setup_s = time.time() - args.spawned_at
    setup = {"setup_s": raw_setup_s * speed, "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    timed = []
    valve_s = 2.0 * args.seconds
    started = time.perf_counter()
    for index in range(args.rounds):
        if timed and time.perf_counter() - started > valve_s:
            print(f"{args.child}: stopped after {len(timed)} of {args.rounds} rounds"
                  f" ({valve_s:.0f} s on the clock)", file=sys.stderr)
            break
        timed.append(workload.round(index))
    peak = peak_rss_mb()
    verify = workload.warmup()

    every_round = [warmup, *timed, verify]
    counts: collections.Counter = collections.Counter()
    samples: dict[str, list[float]] = {}
    for result in timed:
        counts.update(result.counts)
        for name, values in result.samples.items():
            samples.setdefault(name, []).extend(values)
    op_ms = [value for result in timed for value in result.op_ms]
    raw_op_ms = [value for result in timed for value in result.raw_op_ms]
    host_rates = [rate for result in timed for rate in result.host_rates]
    throughputs = [result.ops / result.norm_wall_s for result in timed]
    p25, p50, p75 = quartiles(op_ms)
    report = {
        "rounds_planned": args.rounds,
        "rounds": [_round_record(result) for result in timed],
        "warmup": _round_record(warmup),
        "verify": _round_record(verify),
        "setup_samples": [setup],
        "op_ms": {"n": len(op_ms), "p25": p25, "p50": p50, "p75": p75,
                  "p90": percentile(op_ms, 0.9)},
        "ops_per_s": dict(zip(("p25", "p50", "p75"), quartiles(throughputs)),
                          n=len(throughputs)),
        # As the clock read, before scaling to the reference host speed.
        "raw": {
            "ops_per_s": percentile([r.ops / r.wall_s for r in timed], 0.5),
            "op_ms_p50": percentile(raw_op_ms, 0.5),
            "op_ms_p90": percentile(raw_op_ms, 0.9),
            "host_rate": dict(zip(("p25", "p50", "p75"), quartiles(host_rates)),
                              n=len(host_rates), reference=workloads.CALIBRATION_REFERENCE),
        },
        "round0_accuracy": workload.accuracy(timed[0].counts),
        "counts": dict(counts),
        "end_to_end": {
            "setup_s": setup["setup_s"],
            "ops_per_s": percentile(throughputs, 0.5),
            "op_ms_p50": p50,
            "op_ms_p90": percentile(op_ms, 0.9),
            "peak_rss_mb": peak,
            **workload.accuracy(counts),
        },
        "warnings": [],
    }

    if args.trace != 0:
        tracer = spans.Tracer()
        with spans.tracing(tracer) as unresolved:
            traced = workload.round(0, tracer)
        every_round.append(traced)
        summary = tracer.summary()
        same_input_walls = [r.norm_wall_s for r in timed if r.key == traced.key]
        # The calibration bursts run between ops, off the op clock.
        on_clock_self_ms = sum(summary["by_layer_self_ms"].values()) - summary["by_name"].get(
            "calibration", {"self_ms": 0.0}
        )["self_ms"]
        per_layer = layers.traced_layer_metrics(summary, traced.ops, unresolved)
        per_layer.update(workload.outcome_layer_metrics(counts, samples))
        per_layer.update(workload.traced_extras(timed[0]))
        per_layer.update({
            "harness.trace_overhead_ratio": traced.norm_wall_s / percentile(same_input_walls, 0.5),
            "harness.calibration_loops_per_s": percentile(host_rates, 0.5),
            "harness.round_spread": spread(throughputs),
        })
        for layer, problems in sorted(unresolved.items()):
            report["warnings"] += [f"layer {layer!r} not traced: {p}" for p in problems]
        report["per_layer"] = per_layer
        report["traced"] = {
            "round": _round_record(traced),
            # Self times of all layers over the round's op time.
            "self_sum_over_wall": on_clock_self_ms / 1e3 / traced.wall_s,
            "summary": summary,
            "spans": tracer.span_dicts(),
        }

    # Rounds given the same inputs must agree; one that does not has failed.
    reference: dict[str, str] = {}
    mismatched = []
    failed = 0
    for result in every_round:
        if reference.setdefault(result.key, result.digest) != result.digest:
            mismatched.append(result.key)
            failed += result.ops
        else:
            failed += result.crashed
    report["attempted"] = sum(result.ops for result in every_round)
    report["failed"] = failed
    report["digest_mismatches"] = mismatched
    report["digests"] = reference
    print(json.dumps(report))
    return 0


# -- the parent: spawn, collect, report ---------------------------------------------


class RunFailed(Exception):
    """The benchmark cannot report (message says why)."""


def _spawn(name: str, args: argparse.Namespace, rounds: int, deadline: float,
           setup_only: bool = False) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", name, "--seed", str(args.seed),
        "--rounds", str(rounds), "--seconds", str(args.seconds),
        "--spawned-at", repr(time.time()),
    ]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if setup_only:
        command.append("--setup-only")
    remaining = deadline - time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{name}: child exceeded the {DEADLINE_S:.0f} s budget") from None
    if done.returncode != 0:
        raise RunFailed(f"{name}: child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def planned_rounds(name: str, args: argparse.Namespace, spec: dict) -> int:
    # Imported here: the parent never imports the program under test.
    from workloads import ROUNDS

    if args.quick:
        return 1
    return max(1, round(ROUNDS[name] * args.seconds / spec["run_seconds"]))


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    from stats import percentile

    deadline = time.monotonic() + DEADLINE_S
    report = _spawn(name, args, planned_rounds(name, args, spec), deadline)
    if args.trace != 1:
        for _ in range(EXTRA_SETUPS):
            report["setup_samples"].append(_spawn(name, args, 0, deadline, setup_only=True))
        report["end_to_end"]["setup_s"] = percentile(
            [sample["setup_s"] for sample in report["setup_samples"]], 0.5
        )
    return report


def host_stamp(args: argparse.Namespace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        commit = done.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "unix_time": time.time(),
    }


def contract_metrics(report: dict, spec: dict, trace: int | None) -> dict:
    """``name -> {value, unit}`` for exactly the metrics the mode reports."""
    wanted = []
    if trace != 1:
        wanted += [(m, report["end_to_end"]) for m in spec["end_to_end"]]
    if trace != 0:
        wanted += [(m, report["per_layer"]) for m in spec["per_layer"]]
    metrics = {}
    for metric, values in wanted:
        if metric["name"] not in values:
            raise RunFailed(f"metric {metric['name']!r} of BENCHMARK.json was not measured")
        value = values[metric["name"]]
        metrics[metric["name"]] = {
            "value": UNRESOLVED if value is None else value, "unit": metric["unit"],
        }
    return metrics


def print_workload(name: str, report: dict, metrics: dict, args: argparse.Namespace) -> None:
    rounds = report["rounds"]
    print(f"\n== {name}  seed={args.seed}  quick: {str(args.quick).lower()}"
          f"  rounds={len(rounds)}/{report['rounds_planned']}"
          f"  ops/round={rounds[0]['ops']}  attempted={report['attempted']}"
          f"  failed_ops_frac={report['failed'] / report['attempted']:g}")
    print("  round ops/s: " + " ".join(f"{r['ops_per_s']:.2f}" for r in rounds)
          + "   as the clock read: " + " ".join(f"{r['raw_ops_per_s']:.2f}" for r in rounds))
    ops, pool = report["ops_per_s"], report["op_ms"]
    print(f"  ops_per_s quartiles {ops['p25']:.2f} / {ops['p50']:.2f} / {ops['p75']:.2f}"
          f" (R={ops['n']});  op_ms quartiles {pool['p25']:.2f} / {pool['p50']:.2f} /"
          f" {pool['p75']:.2f}, p90 {pool['p90']:.2f} (n={pool['n']})")
    raw = report["raw"]
    print(f"  as the clock read: ops_per_s {raw['ops_per_s']:.2f}, op_ms_p50 {raw['op_ms_p50']:.2f},"
          f" op_ms_p90 {raw['op_ms_p90']:.2f};  host rate quartiles"
          f" {raw['host_rate']['p25']:.3g} / {raw['host_rate']['p50']:.3g} /"
          f" {raw['host_rate']['p75']:.3g} loops/s (n={raw['host_rate']['n']},"
          f" reference {raw['host_rate']['reference']:.3g})")
    print("  setup_s samples: " + " ".join(f"{s['setup_s']:.3f}" for s in report["setup_samples"])
          + "   as the clock read: " + " ".join(f"{s['raw_setup_s']:.3f}" for s in report["setup_samples"]))
    if "traced" in report:
        print(f"  traced round: layer self times sum to"
              f" {report['traced']['self_sum_over_wall']:.1%} of its wall time;"
              f" {report['traced']['summary']['span_count']} spans")
    for metric, entry in metrics.items():
        value = "null (boundary unresolved)" if entry["value"] == UNRESOLVED else f"{entry['value']:.6g}"
        print(f"  {metric:36s} {value:>14s} {entry['unit']}")
    for warning in report["warnings"]:
        print(f"  WARNING: {warning}")


def write_outputs(out: pathlib.Path, stamp: dict, reports: dict, metrics: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    traces = {}
    workloads_out = {}
    for name, report in reports.items():
        report = dict(report)
        traced = report.pop("traced", None)
        if traced is not None:
            traces[name] = traced
            report["traced"] = {k: traced[k] for k in ("round", "self_sum_over_wall")}
        report["metrics"] = metrics[name]
        workloads_out[name] = report
    (out / "results.json").write_text(
        json.dumps({"schema": 1, "host": stamp, "workloads": workloads_out}, indent=1) + "\n"
    )
    if traces:
        (out / "trace.json").write_text(json.dumps({"host": stamp, "workloads": traces}) + "\n")
    line = {
        "host": stamp,
        "workloads": {
            name: {
                "metrics": {m: entry["value"] for m, entry in metrics[name].items()},
                "round_ops_per_s": [r["ops_per_s"] for r in report["rounds"]],
                "digests": report["digests"],
            }
            for name, report in reports.items()
        },
    }
    with open(out / "history.jsonl", "a") as history:
        history.write(json.dumps(line) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json names {known}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else known
    stamp = host_stamp(args)
    reports, metrics = {}, {}
    try:
        for name in names:
            report = reports[name] = run_workload(name, args, spec)
            if report["failed"]:
                # A ledger over failing ops would compare different work.
                raise RunFailed(
                    f"refusing to report: {name} failed {report['failed']} of"
                    f" {report['attempted']} ops (crashed, or in a round whose outcome digest"
                    f" moved: {report['digest_mismatches']})"
                )
            metrics[name] = contract_metrics(report, spec, args.trace)
            print_workload(name, report, metrics[name], args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    write_outputs(args.out, stamp, reports, metrics)
    print()
    for name in names:
        print(json.dumps({
            "correct": True,  # a run with a failed op was refused above
            "attempted": reports[name]["attempted"],
            "failed": 0,
            "metrics": metrics[name],
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
