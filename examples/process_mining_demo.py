"""Process mining walkthrough: logs -> clusters -> regexes -> model (§III.A).

Reproduces the paper's offline pipeline: collect Asgard-style logs from
several successful rolling upgrades, cluster lines by string distance,
derive regex transformation rules, tag traces, discover the Fig. 2
process model, and finally use the mined model for conformance checking
on a deliberately broken trace.

Run:  python examples/process_mining_demo.py
"""

from repro.logsys.patterns import PatternLibrary
from repro.logsys.record import LogRecord
from repro.logsys.storage import CentralLogStorage
from repro.process.conformance import ConformanceChecker
from repro.process.compiled import CompiledReplayer
from repro.process.mining.cluster import cluster_lines
from repro.process.mining.dfg import DirectlyFollowsGraph
from repro.process.mining.discovery import discover_model
from repro.process.mining.regexgen import derive_pattern
from repro.sim.clock import SimClock
from repro.testbed import Testbed


def collect_logs(n_runs: int = 4):
    """Step 0 — run successful upgrades and keep the raw log lines."""
    runs = []
    for seed in range(n_runs):
        testbed = Testbed(cluster_size=4, seed=700 + seed)
        testbed.run_upgrade(trace_id=f"run-{seed}")
        lines = [r.message for r in testbed.stream.records if "DEBUG" not in r.message]
        runs.append(lines)
    return runs


def main() -> None:
    runs = collect_logs()
    all_lines = [line for run in runs for line in run]
    print(f"collected {len(all_lines)} log lines from {len(runs)} successful upgrades\n")

    # Step 1 — cluster by masked string distance.
    clusters = cluster_lines(all_lines)
    print(f"step 1: {len(clusters)} clusters")
    for cluster in clusters:
        print(f"  [{len(cluster.lines):3d}] {cluster.name:42s} {cluster.representative[:60]}")

    # Step 2 — derive one regex transformation rule per cluster.
    patterns = [derive_pattern(cluster) for cluster in clusters]
    library = PatternLibrary(patterns)
    print("\nstep 2: derived regexes (first three):")
    for pattern in patterns[:3]:
        print(f"  {pattern.activity}: {pattern.regex[:84]}")

    # Step 3 — tag each run's lines and build activity traces.
    traces = []
    for run in runs:
        trace = [library.classify(line).activity for line in run]
        traces.append([a for a in trace if a is not None])
    print(f"\nstep 3: tagged {len(traces)} traces; first trace: {traces[0][:6]} ...")

    # Step 4 — discover the process model from the directly-follows graph.
    dfg = DirectlyFollowsGraph.from_traces(traces)
    model = discover_model(dfg, model_id="mined-rolling-upgrade")
    print(f"\nstep 4: discovered model with {len(model.activities)} activities,"
          f" {len(model.edges)} edges, loop edges {dfg.loop_edges()[:2]} ...")
    for index, trace in enumerate(traces):
        instance = CompiledReplayer(model).instance_for(f"verify-{index}")
        for activity in trace:
            assert instance.replay(activity)
    print("        every training trace replays with fitness 1.0")

    # Step 5 — conformance-check a broken trace on the mined model.
    print("\nstep 5: conformance checking a broken trace (terminate before deregister):")
    checker = ConformanceChecker(model, library, clock=SimClock(), storage=CentralLogStorage())
    broken = list(runs[0])
    # Swap a deregister/terminate pair: an out-of-order execution.
    dereg_index = next(i for i, l in enumerate(broken) if "Deregistered" in l)
    broken[dereg_index], broken[dereg_index + 1] = broken[dereg_index + 1], broken[dereg_index]
    for line in broken[:8]:
        record = LogRecord(time=0.0, source="asgard.log", message=line, tags=["trace:broken"])
        result = checker.check(record)
        flag = "" if result.status == "fit" else f"   <-- {result.status.upper()}"
        print(f"  [{result.status:5s}] {line[:72]}{flag}")


if __name__ == "__main__":
    main()
