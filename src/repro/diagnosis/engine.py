"""The error-diagnosis service (§III.B.4), the walk's driver.

Per request it selects the fault tree(s), notes what process context
prunes, then drives :func:`~repro.diagnosis.walk.walk` over the registry's
own nodes: it pays each look's service round trip, observes, and records
every decision the walk makes into the report, the diagnosis log and trace.
"""

from __future__ import annotations

import itertools
import typing as _t

from repro.assertions.evaluation import AssertionEvaluationService
from repro.diagnosis.report import DiagnosisLine, DiagnosisReport, TestExecution
from repro.diagnosis.tests import CustomTestRegistry
from repro.diagnosis.walk import Look, walk
from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.instantiate import instantiate_tree
from repro.faulttree.tree import EXCLUDED, INCONCLUSIVE
from repro.process.conformance import ERROR, UNKNOWN, ConformanceResult
from repro.process.context import ProcessContext


class DiagnosisEngine:
    """Fault-tree walking diagnosis service."""

    #: Diagnosis runs as a RESTful service in the paper (§IV): selecting
    #: and pruning trees costs one service round trip, and every
    #: diagnostic test is one more.  These latencies reproduce that cost
    #: structure (and hence the Fig. 6 distribution's scale).
    STARTUP_LATENCY_MEDIAN = 0.55
    TEST_OVERHEAD_MEDIAN = 0.06

    def __init__(
        self,
        engine,
        trees: FaultTreeRegistry,
        assertions: AssertionEvaluationService,
        probes: CustomTestRegistry,
        storage,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.trees = trees
        self.assertions = assertions
        self.probes = probes
        self.storage = storage
        from repro.sim.latency import LogNormalLatency

        self._startup_latency = LogNormalLatency(
            median=self.STARTUP_LATENCY_MEDIAN, sigma=0.30, seed=seed + 311, cap=4.0
        )
        self._test_overhead = LogNormalLatency(
            median=self.TEST_OVERHEAD_MEDIAN, sigma=0.35, seed=seed + 313, cap=2.0
        )
        #: Diagnoses started and not yet finished.
        self.in_flight = 0
        self.completed: list[DiagnosisReport] = []
        self._ids = itertools.count(1)

    # -- trigger entry points ---------------------------------------------------

    def diagnose_assertion_failure(self, result) -> DiagnosisReport | None:
        """Entry point wired to AssertionEvaluationService.on_failure."""
        assertion = self.assertions.assertions.get(result.assertion_id)
        tree_id = getattr(assertion, "fault_tree_id", None)
        if tree_id is None or tree_id not in self.trees:
            return None
        return self._request(
            "assertion", result.assertion_id, [tree_id], result.params, result.trace_id,
            result.context, result,
        )

    def diagnose_conformance_error(self, result: ConformanceResult) -> DiagnosisReport:
        """Entry point wired to ConformanceChecker.on_error.

        For unknown/error lines the observed "step" is a pseudo-activity
        (``operation_error`` / ``unclassified``); prune by the *last valid*
        activity instead — that is where the process actually was.
        """
        context = result.context
        if result.status in (UNKNOWN, ERROR):
            context = context.merged_with(step=context.last_valid_activity)
        detail = f"{result.status}:{result.activity or 'unknown-line'}"
        return self._request(
            "conformance", detail, ["process-deviation"], {}, result.trace_id, context, result
        )

    def diagnose(
        self,
        tree_ids: list[str],
        trace_id: str,
        context: ProcessContext | None = None,
        trigger_detail: str = "manual",
    ) -> DiagnosisReport:
        """Run a diagnosis of trace ``trace_id`` over an explicit set of fault trees.

        The programmatic entry point: operators (and the ablation benches)
        can ask for any tree combination — e.g. a timer-triggered failure
        with weak context may warrant consulting both the instance-count
        tree and the resource-integrity tree.
        """
        return self._request(
            "external", trigger_detail, list(tree_ids), {}, trace_id, context, None
        )

    # -- request construction ------------------------------------------------------

    def _request(
        self, trigger: str, detail: str, tree_ids: list[str], params: dict, trace_id: str,
        context, entry,
    ) -> DiagnosisReport:
        """Build the request's report and start its walk as an engine process;
        the report fills in as the walk goes."""
        report = DiagnosisReport(
            request_id=f"diag-{next(self._ids)}",
            trigger=trigger,
            trigger_detail=detail,
            trace_id=trace_id,
            step=context.step if context else None,
            started_at=self.engine.now,
            tree_ids=tree_ids,
            params=self._merge_params(params, context, trace_id),
            context=context,
            entry=entry,
        )
        self.engine.process(self._run(report), name=report.request_id)
        return report

    def _merge_params(self, params: dict, context, trace_id: str) -> dict:
        """Request params: the trace's repository ∪ context fields ∪ trigger params.

        The configuration repository supplies the stable variables
        (asg_name, expected ids, N); the trigger adds specifics
        (instanceid of the new instance, counts).
        """
        merged = dict(self.assertions.envs[trace_id].config)
        if context is not None:
            merged.update({k: v for k, v in context.fields.items() if v is not None})
        merged.update({k: v for k, v in params.items() if v is not None})
        return merged

    # -- execution -------------------------------------------------------------------

    def _run(self, report: DiagnosisReport) -> _t.Generator:
        self.in_flight += 1
        try:
            # Service round trip: receive the request, select the tree(s),
            # prune by context.
            yield self.engine.timeout(self._startup_latency.sample())
            trees = [self.trees.get(tree_id) for tree_id in report.tree_ids]
            for tree in trees:
                pruned, leaves = instantiate_tree(tree, report.step)
                report.pruned.extend(pruned)
                report.potential_fault_count += leaves
            self._log(
                report, "Performing on demand assertion checking: %s. %s potential faults in"
                " total...", report.trigger_detail, report.potential_fault_count,
            )
            steps = walk([tree.root for tree in trees], report.params, report.step, report.since)
            report.root_causes = yield from self._drive(steps, report)
        finally:
            self.in_flight -= 1
        report.finished_at = self.engine.now
        if report.no_root_cause:
            self._log(report, "No root cause identified")
        else:
            count = len(report.root_causes)
            noun = "root cause is" if count == 1 else "root causes are"
            self._log(report, "%s %s identified", count, noun)
        self.completed.append(report)

    def _drive(self, steps: _t.Generator, report: DiagnosisReport) -> _t.Generator:
        """Service the walk's looks until it returns its root causes.  The
        walk decides in no virtual time: each decision is recorded when it is
        handed over (with the next look, or at the end), the first one after
        a look being that look's own, which started when the look did."""
        observation = looking = None
        while True:
            try:
                look = steps.send(observation)
                decided = look.decided
            except StopIteration as done:
                look, (causes, tests) = None, done.value
                decided = tests[len(report.tests):]
            now = self.engine.now
            for execution in decided:
                execution.started_at = now if looking is None else looking
                execution.finished_at = now
                looking = None
                self._record(execution, report)
            if look is None:
                return causes
            looking = self.engine.now
            # One service round trip per diagnostic test, then the look.
            yield self.engine.timeout(self._test_overhead.sample())
            observation = yield from self._observe(look, report)

    def _record(self, execution: TestExecution, report: DiagnosisReport) -> None:
        """One decision of the walk into the report and the log."""
        report.tests.append(execution)
        node_id, verdict = execution.node_id, execution.verdict
        if verdict == EXCLUDED:
            self._log(report, "Verified %s: fault excluded. %s/%s checks excluded", node_id,
                      report.excluded_count, report.potential_fault_count)
        elif verdict == INCONCLUSIVE:
            self._log(report, "Check for %s inconclusive; cannot proceed below", node_id)
        else:
            self._log(report, "Failed verification at %s: %s", node_id, execution.description)

    def _observe(self, look: Look, report: DiagnosisReport) -> _t.Generator:
        """Look: ``(observed, evidence, degraded)``.  ``observed`` is True /
        False when the fault condition is / is not there (an on-demand
        assertion: "it failed"), None when the test could not look —
        unknown name, API failure, timeout, degraded plane; never a crashed
        diagnosis.  ``kind`` only selects the registry resolving the name."""
        node, test, params = look.node, look.node.test, look.params
        if test.kind != "assertion":
            self._log(report, "Verifying %s: probe %s", node.node_id, test.name)
            env = self.assertions.envs[report.trace_id]
            observed, evidence = yield from self.probes.run(test.name, env, params)
            return observed, evidence, bool(evidence.get("degraded"))
        self._log(report, "Verifying %s: %s %s", node.node_id, test.name, params)
        if test.name not in self.assertions.assertions:
            return None, {"reason": f"unknown assertion {test.name}"}, False
        result = yield from self.assertions.evaluate_on_demand(test.name, params, report.trace_id)
        if result.degraded:
            return None, {"reason": "degraded API plane"}, True
        if result.timed_out:
            return None, {"reason": "assertion timed out"}, False
        return result.failed, {"message": result.detail, **result.observed}, False

    # -- logging -------------------------------------------------------------------

    def _log(self, report: DiagnosisReport, template: str, *args) -> None:
        """Store one diagnosis log line: ``template % args``, formatted when read.
        A report with no process context logs trace ``unknown`` and step ``-``."""
        context = report.context
        trace, step = (context.trace_id, context.step) if context else ("unknown", "-")
        self.storage.append(
            DiagnosisLine(self.engine.now, trace, step, report.request_id, template, args)
        )
