"""The error-diagnosis service (§III.B.4), the walk's driver.

Per request it selects the fault tree(s), notes what process context
prunes, then drives :func:`~repro.diagnosis.walk.walk` over the registry's
own nodes: it pays each look's service round trip, observes, and records
every decision the walk makes into the report, the diagnosis log and trace.
"""

from __future__ import annotations

import dataclasses
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


@dataclasses.dataclass
class DiagnosisRequest:
    """One diagnosis invocation."""

    request_id: str
    trigger: str  # "assertion" | "conformance" | "external"
    trigger_detail: str
    tree_ids: list[str]
    params: dict
    #: The watched trace whose repository the walk reads (a timer's too).
    trace_id: str
    context: ProcessContext | None = None


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
        obs=None,
    ) -> None:
        self._tracer = obs.tracer if obs else None
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

    def diagnose_assertion_failure(self, result) -> DiagnosisRequest | None:
        """Entry point wired to AssertionEvaluationService.on_failure."""
        assertion = self.assertions.assertions.get(result.assertion_id)
        tree_id = getattr(assertion, "fault_tree_id", None)
        if tree_id is None or tree_id not in self.trees:
            return None
        return self._request(
            "assertion", result.assertion_id, [tree_id], result.params, result.trace_id,
            result.context,
        )

    def diagnose_conformance_error(self, result: ConformanceResult) -> DiagnosisRequest:
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
            "conformance", detail, ["process-deviation"], {}, result.trace_id, context
        )

    def diagnose(
        self,
        tree_ids: list[str],
        trace_id: str,
        context: ProcessContext | None = None,
        trigger_detail: str = "manual",
    ) -> DiagnosisRequest:
        """Run a diagnosis of trace ``trace_id`` over an explicit set of fault trees.

        The programmatic entry point: operators (and the ablation benches)
        can ask for any tree combination — e.g. a timer-triggered failure
        with weak context may warrant consulting both the instance-count
        tree and the resource-integrity tree.
        """
        return self._request("external", trigger_detail, list(tree_ids), {}, trace_id, context)

    # -- request construction ------------------------------------------------------

    def _request(
        self, trigger: str, detail: str, tree_ids: list[str], params: dict, trace_id: str,
        context,
    ) -> DiagnosisRequest:
        """Build one request and start its walk as an engine process."""
        request = DiagnosisRequest(
            request_id=f"diag-{next(self._ids)}",
            trigger=trigger,
            trigger_detail=detail,
            tree_ids=tree_ids,
            params=self._merge_params(params, context, trace_id),
            trace_id=trace_id,
            context=context,
        )
        span = None
        if self._tracer is not None:
            # Opened at the trigger site (inside the assertion/conformance
            # span that detected the anomaly), closed when the walk ends.
            span = self._tracer.start_span("walk", "diagnosis", trigger=trigger,
                                           trigger_detail=detail, tree_ids=list(tree_ids))
        self.engine.process(self._run(request, span), name=request.request_id)
        return request

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

    def _run(self, request: DiagnosisRequest, span=None) -> _t.Generator:
        report = DiagnosisReport(
            request_id=request.request_id,
            trigger=request.trigger,
            trigger_detail=request.trigger_detail,
            trace_id=request.context.trace_id if request.context else "unknown",
            step=request.context.step if request.context else None,
            started_at=self.engine.now,
            tree_ids=list(request.tree_ids),
        )
        self.in_flight += 1
        try:
            # Service round trip: receive the request, select the tree(s),
            # prune by context.
            yield self.engine.timeout(self._startup_latency.sample())
            since = float(request.params.get("since", 0.0) or 0.0)
            trees = [self.trees.get(tree_id) for tree_id in request.tree_ids]
            for tree in trees:
                pruned, leaves = instantiate_tree(tree, report.step)
                report.pruned.extend(pruned)
                report.potential_fault_count += leaves
            self._log(
                request, "Performing on demand assertion checking: %s. %s potential faults in"
                " total...", request.trigger_detail, report.potential_fault_count,
            )
            steps = walk([tree.root for tree in trees], request.params, report.step, since)
            report.root_causes = yield from self._drive(steps, request, report, span)
        finally:
            self.in_flight -= 1
        report.finished_at = self.engine.now
        if report.no_root_cause:
            self._log(request, "No root cause identified")
        else:
            count = len(report.root_causes)
            noun = "root cause is" if count == 1 else "root causes are"
            self._log(request, "%s %s identified", count, noun)
        self.completed.append(report)
        if self._tracer is not None:
            self._tracer.finish(span, root_causes=len(report.root_causes),
                                no_root_cause=report.no_root_cause, tests=len(report.tests))
        return report

    def _drive(self, steps: _t.Generator, request, report, walk_span) -> _t.Generator:
        """Service the walk's looks until it returns its root causes.  The
        walk decides in no virtual time: each decision is recorded when it is
        handed over (with the next look, or at the end), the first one after
        a look being that look's own."""
        observation = looking = None
        while True:
            try:
                look = steps.send(observation)
                decided = look.decided
            except StopIteration as done:
                look, (causes, tests) = None, done.value
                decided = tests[len(report.tests):]
            for execution in decided:
                test_span = None
                if looking is not None:
                    (test_span, started), looking = looking, None
                    execution.duration = self.engine.now - started
                self._record(execution, request, report, walk_span, test_span)
            if look is None:
                return causes
            test = look.node.test
            test_span = self._test_span(walk_span, look.node.node_id, test.name, kind=test.kind)
            looking = test_span, self.engine.now
            # One service round trip per diagnostic test, then the look.
            yield self.engine.timeout(self._test_overhead.sample())
            observation = yield from self._observe(look, request)

    def _test_span(self, walk_span, node_id: str, test_name: str, **attrs):
        if self._tracer is None:
            return None
        return self._tracer.start_span(
            "test", "diagnosis", parent=walk_span, node=node_id, test=test_name, **attrs
        )

    def _record(self, execution: TestExecution, request, report, walk_span, test_span) -> None:
        """One decision of the walk into the report, the trace and the log."""
        report.tests.append(execution)
        node_id, verdict = execution.node_id, execution.verdict
        if self._tracer is not None and execution.cached:
            # The same observation, re-attributed to this node at no cost.
            hit = self._test_span(walk_span, node_id, execution.test_name, cached=True)
            self._tracer.finish(hit, verdict=verdict)
        elif self._tracer is not None:
            # No span yet: an unresolved `$var`, decided before it cost anything.
            test_span = test_span or self._test_span(
                walk_span, node_id, execution.test_name, kind=execution.test_kind
            )
            self._tracer.finish(test_span, verdict=verdict, degraded=execution.degraded)
        if verdict == EXCLUDED:
            report.excluded_count += 1
            self._log(request, "Verified %s: fault excluded. %s/%s checks excluded", node_id,
                      report.excluded_count, report.potential_fault_count)
        elif verdict == INCONCLUSIVE:
            self._log(request, "Check for %s inconclusive; cannot proceed below", node_id)
        else:
            self._log(request, "Failed verification at %s: %s", node_id, execution.description)

    def _observe(self, look: Look, request: DiagnosisRequest) -> _t.Generator:
        """Look: ``(observed, evidence, degraded)``.  ``observed`` is True /
        False when the fault condition is / is not there (an on-demand
        assertion: "it failed"), None when the test could not look —
        unknown name, API failure, timeout, degraded plane; never a crashed
        diagnosis.  ``kind`` only selects the registry resolving the name."""
        node, test, params = look.node, look.node.test, look.params
        if test.kind != "assertion":
            self._log(request, "Verifying %s: probe %s", node.node_id, test.name)
            env = self.assertions.envs[request.trace_id]
            observed, evidence = yield from self.probes.run(test.name, env, params)
            return observed, evidence, bool(evidence.get("degraded"))
        self._log(request, "Verifying %s: %s %s", node.node_id, test.name, params)
        if test.name not in self.assertions.assertions:
            return None, {"reason": f"unknown assertion {test.name}"}, False
        result = yield from self.assertions.evaluate_on_demand(test.name, params, request.trace_id)
        if result.degraded:
            return None, {"reason": "degraded API plane"}, True
        if result.timed_out:
            return None, {"reason": "assertion timed out"}, False
        return result.failed, {"message": result.detail, **result.observed}, False

    # -- logging -------------------------------------------------------------------

    def _log(self, request: DiagnosisRequest, template: str, *args) -> None:
        """Store one diagnosis log line: ``template % args``, formatted when read."""
        context = request.context
        trace, step = (context.trace_id, context.step) if context else ("unknown", "-")
        self.storage.append(
            DiagnosisLine(self.engine.now, trace, step, request.request_id, template, args)
        )
