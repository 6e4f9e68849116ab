"""Command-line interface: ``python -m repro <command>``.

The commands cover the day-one workflows of a downstream user:

- ``demo``      — a clean upgrade, then a faulty one, with the diagnosis log;
- ``campaign``  — the paper's fault-injection campaign at any scale
  (optionally parallel via ``--workers``), with Table I / Fig. 6 /
  Fig. 7 output and optional JSON export;
- ``chaos-sweep`` — the campaign repeated across API degradation levels;
- ``recover``    — the closed loop on one faulty upgrade: diagnose,
  remediate, verify, resume (prints the recovery record);
- ``mine``      — discover the rolling-upgrade process model from fresh
  logs and print it (optionally as Graphviz DOT);
- ``trees``     — inventory the standard fault trees (optionally as DOT);
- ``trace-export`` — run a small traced campaign and export the pipeline
  spans + metrics as JSON, plus a human-readable span tree per run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing as _t


def positive_int(value: str) -> int:
    """argparse type of every count: runs per fault type, cluster size,
    spans rendered."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return number


def non_negative_seconds(value: str) -> float:
    """argparse type of a virtual-time offset: a finite number >= 0."""
    number = float(value)
    if not 0 <= number < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return number


def _chaos_levels(value: str) -> list[str]:
    """``--levels none,severe``: checked before any campaign runs."""
    from repro.cloud.chaos import CHAOS_LEVELS

    levels = value.split(",")
    unknown = [level for level in levels if level not in CHAOS_LEVELS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown chaos level(s) {', '.join(unknown)}; known: {', '.join(CHAOS_LEVELS)}"
        )
    return levels


def _tree_id(value: str) -> str:
    from repro.faulttree.library import shared_standard_fault_trees

    known = shared_standard_fault_trees().tree_ids()
    if value not in known:
        raise argparse.ArgumentTypeError(f"unknown tree id {value!r}; known: {', '.join(known)}")
    return value


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.evaluation.faults import FAULT_TYPES, FaultPlan, schedule_fault
    from repro.testbed import build_testbed

    testbed = build_testbed(cluster_size=args.cluster, seed=args.seed)
    operation = testbed.run_upgrade()
    print(f"clean upgrade: {operation.status} in {operation.duration:.0f}s (virtual),"
          f" {len(testbed.pod.detections)} detections")

    testbed = build_testbed(cluster_size=args.cluster, seed=args.seed + 1)
    # The paper's fault #1: another team swaps the AMI mid-upgrade.
    schedule_fault(testbed, FaultPlan(fault_type=FAULT_TYPES[0], inject_at=40.0))
    testbed.run_upgrade()
    print(f"faulty upgrade (wrong AMI): {len(testbed.pod.detections)} detections")
    for report in testbed.pod.reports[:1]:
        print(f"  {report.summary()}")
    for record in testbed.pod.storage.query(type="diagnosis")[:8]:
        print(f"  {record.message}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """One faulty upgrade end to end: diagnose → remediate → verify → resume."""
    from repro.evaluation.faults import FaultPlan, schedule_fault
    from repro.recovery import ESCALATED, RECOVERED
    from repro.recovery.supervisor import recover_run
    from repro.testbed import build_testbed

    testbed = build_testbed(
        cluster_size=args.cluster, seed=args.seed, chaos=args.chaos
    )
    plan = FaultPlan(fault_type=args.fault, inject_at=args.inject_at)
    schedule_fault(testbed, plan)
    operation = testbed.run_upgrade(trace_id="recover-demo")
    print(f"upgrade: {operation.status} in {operation.duration:.0f}s (virtual),"
          f" {len(testbed.pod.detections)} detections")
    for report in testbed.pod.reports[:2]:
        print(f"  {report.summary()}")

    record = recover_run(
        testbed, operation, run_id="recover-demo", seed=args.seed
    )
    if record is None:
        print("nothing to recover: no diagnosed causes and the fleet conforms")
        return 0
    print(f"\nrecovery: {record['status']}"
          + (f" (MTTR {record['mttr']:.0f}s virtual)" if record["mttr"] is not None else "")
          + (f" ({record['escalation_reason']})" if record["escalation_reason"] else ""))
    for action in record["actions"]:
        print(f"  action {action['action']} on {action['target']}:"
              f" {action['status']} (attempts={action['attempts']})")
    if record["resumed"]:
        print(f"  resumed upgrade: {record['resume_status']}"
              f" (trace {record['resume_trace_id']},"
              f" {record['resume_detections']} new detections)")
    print(f"  fleet conformant: {record['fleet_conformant']}")
    for line in record["advisory"]:
        print(f"  advisory: {line}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=2)
        print(f"\nrecovery record written to {args.json}")
    return 0 if record["status"] == RECOVERED else (2 if record["status"] == ESCALATED else 1)


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.evaluation.campaign import Campaign, CampaignConfig
    from repro.evaluation.figures import render_fig6, render_fig7, render_headline
    from repro.evaluation.metrics import compute_metrics

    config = CampaignConfig(
        runs_per_fault=args.runs,
        large_cluster_runs=max(1, args.runs // 5),
        seed=args.seed,
        chaos_profile=args.chaos,
        recover=args.recover,
    )
    campaign = Campaign(config)

    def progress(index: int, total: int, outcome) -> None:
        if args.verbose:
            status = "detected" if outcome.fault_detected else "MISSED"
            print(f"[{index}/{total}] {outcome.spec.run_id}: {'CRASHED' if outcome.failed else status}")

    campaign.run(progress=progress, max_workers=args.workers)
    metrics = compute_metrics(campaign.outcomes)
    if metrics.failed_runs:
        print(f"WARNING: {metrics.failed_runs} run(s) crashed and were excluded from metrics:",
              file=sys.stderr)
        for outcome in campaign.outcomes:
            if outcome.failed:
                print(f"  {outcome.spec.run_id}: {outcome.error.strip().splitlines()[-1]}",
                      file=sys.stderr)
    print(render_headline(metrics))
    print()
    print(render_fig6(metrics))
    print()
    print(render_fig7(metrics))
    if metrics.recovery_attempted:
        mttr = metrics.mttr_stats()
        print(f"\nrecovery: {metrics.recovered_runs} RECOVERED /"
              f" {metrics.escalated_runs} ESCALATED"
              f" of {metrics.recovery_attempted} attempted"
              f" (success {metrics.recovery_success_rate:.1%},"
              f" {metrics.resumed_runs} resumed,"
              f" MTTR mean {mttr['mean']:.1f}s p95 {mttr['p95']:.1f}s)")
    if args.report:
        from repro.evaluation.reporting import render_markdown

        with open(args.report, "w") as handle:
            handle.write(render_markdown(campaign.outcomes, metrics))
        print(f"\nreport written to {args.report}")
    if args.json:
        payload = {
            "config": {
                "runs_per_fault": args.runs,
                "seed": args.seed,
                "chaos_profile": args.chaos,
                "recover": args.recover,
            },
            "total_runs": metrics.total_runs,
            "failed_runs": metrics.failed_runs,
            "scored_runs": metrics.scored_runs,
            "degraded_verdicts": metrics.degraded_verdicts,
            "api_health": metrics.api_health,
            "precision": metrics.precision,
            "recall": metrics.recall,
            "accuracy_rate": metrics.accuracy_rate,
            "false_positives": metrics.false_positives,
            "interference_detected": metrics.interference_detected,
            "diagnosis_time_stats": metrics.diagnosis_time_stats(),
            "recovery": {
                "attempted": metrics.recovery_attempted,
                "recovered": metrics.recovered_runs,
                "escalated": metrics.escalated_runs,
                "resumed": metrics.resumed_runs,
                "success_rate": metrics.recovery_success_rate,
                "mttr_stats": metrics.mttr_stats(),
            },
            "per_fault": {
                ft: {
                    "precision": bucket.precision,
                    "recall": bucket.recall,
                    "accuracy_rate": bucket.accuracy_rate,
                }
                for ft, bucket in metrics.per_fault.items()
            },
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nmetrics written to {args.json}")
    return 0 if metrics.recall == 1.0 else 1


def _cmd_chaos_sweep(args: argparse.Namespace) -> int:
    from repro.evaluation.campaign import CampaignConfig
    from repro.evaluation.sweeps import render_sweep, sweep

    configs = {
        level: CampaignConfig(
            runs_per_fault=args.runs, large_cluster_runs=0, seed=args.seed, chaos_profile=level
        )
        for level in args.levels
    }
    points = sweep("chaos_profile", configs, max_workers=args.workers)
    print(render_sweep(points))
    crashed = sum(p.metrics.failed_runs for p in points)
    if crashed:
        print(f"\nWARNING: {crashed} run(s) crashed — the degradation contract is broken",
              file=sys.stderr)
    if args.json:
        payload = {
            "seed": args.seed,
            "runs_per_fault": args.runs,
            "points": [
                {**p.row(), "api_health": p.metrics.api_health} for p in points
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nsweep written to {args.json}")
    return 1 if crashed else 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.evaluation.campaign import Campaign, CampaignConfig
    from repro.evaluation.metrics import compute_metrics
    from repro.obs.export import render_span_tree, trace_payload

    config = CampaignConfig(
        runs_per_fault=args.runs,
        large_cluster_runs=0,
        seed=args.seed,
        chaos_profile=args.chaos,
        trace=True,
    )
    campaign = Campaign(config)
    campaign.run(max_workers=args.workers)
    metrics = compute_metrics(campaign.outcomes)
    traced = [o for o in campaign.outcomes if not o.failed and o.trace is not None]
    if not traced:
        print("no traced runs survived — every run crashed", file=sys.stderr)
        return 1
    payload = {
        "config": {
            "runs_per_fault": args.runs,
            "seed": args.seed,
            "chaos_profile": args.chaos,
        },
        "total_runs": metrics.total_runs,
        "failed_runs": metrics.failed_runs,
        "scored_runs": metrics.scored_runs,
        "pipeline_metrics": metrics.pipeline_metrics,
        "runs": [trace_payload(o.spec.run_id, o.trace, o.metrics) for o in traced],
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"trace written to {args.json}")
    for run in payload["runs"]:
        stages = ", ".join(f"{k}={v}" for k, v in sorted(run["stages"].items()))
        print(f"{run['run_id']}: {run['span_count']} spans ({stages})")

    wanted = args.tree
    if wanted is None:
        chosen = traced[0]
    else:
        chosen = next((o for o in traced if o.spec.run_id == wanted), None)
        if chosen is None:
            print(f"unknown run id {wanted!r}; traced runs:"
                  f" {', '.join(o.spec.run_id for o in traced)}", file=sys.stderr)
            return 1
    print()
    print(render_span_tree(chosen.trace, title=chosen.spec.run_id,
                           max_spans=args.max_spans))
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.logsys.patterns import classify_record
    from repro.operations.profile import shared_rolling_upgrade_profile
    from repro.process.mining.dfg import DirectlyFollowsGraph
    from repro.process.mining.discovery import discover_model
    from repro.process.serialize import model_to_dot
    from repro.testbed import Testbed

    # The warm shared library is the same instance the testbed's pipeline
    # classifies with, so stream records arrive here already classified
    # and the miner gets memo hits instead of re-scanning every line.
    library = shared_rolling_upgrade_profile().library
    traces = []
    for seed in range(args.runs):
        testbed = Testbed(cluster_size=4, seed=args.seed + seed)
        testbed.run_upgrade(trace_id=f"mine-{seed}")
        trace = []
        for record in testbed.stream.records:
            classification = classify_record(library, record)
            if classification.matched and not classification.pattern.is_error:
                trace.append(classification.activity)
        traces.append(trace)
    dfg = DirectlyFollowsGraph.from_traces(traces)
    model = discover_model(dfg, model_id="mined-rolling-upgrade")
    if args.dot:
        print(model_to_dot(model))
    else:
        print(f"discovered model from {len(traces)} runs:"
              f" {len(model.activities)} activities, {len(model.edges)} edges")
        for source, target in sorted(model.edges):
            print(f"  {source} -> {target}")
        print(f"loop edges: {dfg.loop_edges()}")
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    from repro.faulttree.library import build_standard_fault_trees
    from repro.faulttree.serialize import tree_to_dot

    registry = build_standard_fault_trees()
    if args.dot:
        tree = registry.get(args.dot)
        print(tree_to_dot(tree))
        return 0
    print("standard fault trees:")
    for tree_id, info in sorted(registry.stats().items()):
        print(f"  {tree_id:22s} nodes={info['nodes']:3d} leaves={info['leaves']:3d}"
              f" variables={','.join(info['variables']) or '-'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="POD-Diagnosis (DSN 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="clean + faulty upgrade with diagnosis output")
    demo.add_argument("--cluster", type=positive_int, default=4, help="cluster size (default 4)")
    demo.add_argument("--seed", type=int, default=1)
    demo.set_defaults(func=_cmd_demo)

    campaign = sub.add_parser("campaign", help="run the fault-injection campaign")
    campaign.add_argument("--runs", type=positive_int, default=20, help="runs per fault type")
    campaign.add_argument("--seed", type=int, default=2014)
    campaign.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the runs (1 = serial, -1 = all cores);"
             " clamped to the host core count; results are identical at any"
             " worker count",
    )
    from repro.cloud.chaos import CHAOS_LEVELS

    campaign.add_argument(
        "--chaos", default="none", choices=list(CHAOS_LEVELS),
        help="API-plane degradation profile applied to every run",
    )
    campaign.add_argument(
        "--recover", action="store_true",
        help="close the loop on every run: diagnose → remediate → verify →"
             " resume (adds recovery-success rate + MTTR to the output)",
    )
    campaign.add_argument("--json", help="write metrics JSON to this path")
    campaign.add_argument("--report", help="write a Markdown report to this path")
    campaign.add_argument("--verbose", action="store_true")
    campaign.set_defaults(func=_cmd_campaign)

    recover = sub.add_parser(
        "recover",
        help="one faulty upgrade through the closed loop: diagnose,"
             " remediate, verify, resume",
    )
    from repro.evaluation.faults import FAULT_TYPES

    recover.add_argument(
        "--fault", default="KEYPAIR_UNAVAILABLE", choices=list(FAULT_TYPES),
        help="fault type injected mid-upgrade (default KEYPAIR_UNAVAILABLE)",
    )
    recover.add_argument("--cluster", type=positive_int, default=4, help="cluster size (default 4)")
    recover.add_argument("--seed", type=int, default=11)
    recover.add_argument("--inject-at", type=non_negative_seconds, default=40.0,
                         help="virtual seconds after upgrade start (default 40)")
    recover.add_argument(
        "--chaos", default="none", choices=list(CHAOS_LEVELS),
        help="API-plane degradation profile (recovery must still terminate)",
    )
    recover.add_argument("--json", help="write the recovery record JSON to this path")
    recover.set_defaults(func=_cmd_recover)

    chaos_sweep = sub.add_parser(
        "chaos-sweep",
        help="run the campaign across API degradation levels (none → severe)",
    )
    chaos_sweep.add_argument("--runs", type=positive_int, default=3,
                             help="runs per fault type per level")
    chaos_sweep.add_argument("--seed", type=int, default=7004)
    chaos_sweep.add_argument(
        "--levels", type=_chaos_levels, default=CHAOS_LEVELS,
        help="comma-separated chaos levels (default: all, none → severe)",
    )
    chaos_sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the runs (1 = serial, -1 = all cores)",
    )
    chaos_sweep.add_argument("--json", help="write the sweep table JSON to this path")
    chaos_sweep.set_defaults(func=_cmd_chaos_sweep)

    trace = sub.add_parser(
        "trace-export",
        help="run a traced campaign and export pipeline spans + metrics",
    )
    trace.add_argument("--runs", type=positive_int, default=1,
                       help="runs per fault type (default 1 → 8 traced runs)")
    trace.add_argument("--seed", type=int, default=2014)
    trace.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (traces are identical at any worker count)",
    )
    trace.add_argument(
        "--chaos", default="none", choices=list(CHAOS_LEVELS),
        help="API-plane degradation profile applied to every run",
    )
    trace.add_argument("--json", help="write the full trace JSON to this path")
    trace.add_argument("--tree", metavar="RUN_ID",
                       help="render this run's span tree (default: first run)")
    trace.add_argument("--max-spans", type=positive_int, default=80,
                       help="truncate the rendered tree after this many spans")
    trace.set_defaults(func=_cmd_trace_export)

    mine = sub.add_parser("mine", help="discover the process model from fresh logs")
    mine.add_argument("--runs", type=positive_int, default=3)
    mine.add_argument("--seed", type=int, default=500)
    mine.add_argument("--dot", action="store_true", help="print Graphviz DOT")
    mine.set_defaults(func=_cmd_mine)

    trees = sub.add_parser("trees", help="inventory the standard fault trees")
    trees.add_argument("--dot", metavar="TREE_ID", type=_tree_id,
                       help="print one tree as Graphviz DOT")
    trees.set_defaults(func=_cmd_trees)

    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
