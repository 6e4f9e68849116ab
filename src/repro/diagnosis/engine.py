"""The error-diagnosis engine (§III.B.4).

Walks instantiated, context-pruned fault trees top-down:

- a node's diagnostic test *confirms* the fault → visit its children
  (ordered by prior probability); a confirmed **leaf** is a root cause;
- the test *excludes* the fault → prune the subtree;
- the test is *inconclusive* (missing context, CloudTrail delay, API
  timeout) → diagnosis cannot proceed below that node;
- a confirmed node none of whose children confirm is reported as an
  **undetermined** root cause ("diagnosis stops at the point where no
  further child nodes can be checked").

Test results are cached per run and reused across nodes.  Every step is
logged in the paper's diagnosis-log style.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing as _t

from repro.assertions.evaluation import AssertionEvaluationService
from repro.diagnosis.cache import DiagnosisCache
from repro.diagnosis.report import DiagnosisReport, RootCause, TestExecution
from repro.diagnosis.tests import CustomTestRegistry
from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.instantiate import instantiate_tree
from repro.faulttree.tree import CONFIRMED, EXCLUDED, INCONCLUSIVE, DiagnosticTest, FaultNode
from repro.logsys.record import LogRecord
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
    context: ProcessContext | None = None
    since: float = 0.0


class DiagnosisEngine:
    """Fault-tree walking diagnosis service."""

    #: Diagnosis runs as a RESTful service in the paper (§IV): selecting
    #: and instantiating trees costs one service round trip, and every
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
        storage=None,
        seed: int = 0,
        enable_pruning: bool = True,
        enable_cache: bool = True,
        step_aliases: dict[str, str] | None = None,
        obs=None,
    ) -> None:
        self._tracer = obs.tracer if obs else None
        self._metrics = obs.metrics if obs else None
        self.engine = engine
        self.trees = trees
        self.assertions = assertions
        self.probes = probes
        self.storage = storage
        #: Ablation switches: context pruning (the paper's subtree pruning
        #: by process context) and per-run diagnostic-test result reuse.
        #: Production keeps both on; the ablation benches quantify what
        #: each buys.
        self.enable_pruning = enable_pruning
        self.enable_cache = enable_cache
        #: Operation-specific activity -> canonical tree step translation
        #: (see OperationProfile.step_aliases).
        self.step_aliases = dict(step_aliases or {})
        from repro.sim.latency import LogNormalLatency

        self._startup_latency = LogNormalLatency(
            median=self.STARTUP_LATENCY_MEDIAN, sigma=0.30, seed=seed + 311, cap=4.0
        )
        self._test_overhead = LogNormalLatency(
            median=self.TEST_OVERHEAD_MEDIAN, sigma=0.35, seed=seed + 313, cap=2.0
        )
        self.reports: list[DiagnosisReport] = []
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
            "assertion", result.assertion_id, [tree_id], result.params, result.context
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
        return self._request("conformance", detail, ["process-deviation"], {}, context)

    def diagnose(
        self,
        tree_ids: list[str],
        context: ProcessContext | None = None,
        trigger_detail: str = "manual",
    ) -> DiagnosisRequest:
        """Run a diagnosis over an explicit set of fault trees.

        The programmatic entry point: operators (and the ablation benches)
        can ask for any tree combination — e.g. a timer-triggered failure
        with weak context may warrant consulting both the instance-count
        tree and the resource-integrity tree.
        """
        return self._request("external", trigger_detail, list(tree_ids), {}, context)

    def diagnose_external(self, record: LogRecord) -> DiagnosisRequest:
        """Entry point for the central log processor (third-party failure
        lines)."""
        context = ProcessContext.from_record(record)
        return self._request(
            "external", record.source, ["process-deviation"], dict(record.fields), context
        )

    # -- request construction ------------------------------------------------------

    def _request(
        self, trigger: str, detail: str, tree_ids: list[str], params: dict, context
    ) -> DiagnosisRequest:
        """Build one request, start its walk."""
        merged = self._merge_params(params, context)
        request = DiagnosisRequest(
            request_id=f"diag-{next(self._ids)}",
            trigger=trigger,
            trigger_detail=detail,
            tree_ids=tree_ids,
            params=merged,
            context=context,
            since=float(merged.get("since", 0.0) or 0.0),
        )
        self._start(request)
        return request

    def _merge_params(self, params: dict, context) -> dict:
        """Request params: env config ∪ trigger params ∪ context fields.

        The configuration repository supplies the stable variables
        (asg_name, expected ids, N); the trigger adds specifics
        (instanceid of the new instance, counts).
        """
        merged = dict(self.assertions.env.config)
        if context is not None:
            merged.update({k: v for k, v in context.fields.items() if v is not None})
        merged.update({k: v for k, v in params.items() if v is not None})
        return merged

    # -- execution -------------------------------------------------------------------

    def _start(self, request: DiagnosisRequest) -> None:
        span = None
        if self._tracer is not None:
            # Opened at the trigger site (inside the assertion/conformance
            # span that detected the anomaly); the walk itself runs as its
            # own engine process and closes the span when it completes.
            span = self._tracer.start_span(
                "walk",
                "diagnosis",
                trigger=request.trigger,
                trigger_detail=request.trigger_detail,
                tree_ids=list(request.tree_ids),
            )
            self._metrics.inc("diagnosis.requests")
            self._metrics.inc(f"diagnosis.requests.{request.trigger}")
        self.engine.process(self._run(request, span), name=request.request_id)

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
        self.reports.append(report)
        # Service round trip: receive the request, select the tree(s),
        # instantiate variables, prune by context.
        yield self.engine.timeout(self._startup_latency.sample())
        cache = DiagnosisCache()
        step = self.step_aliases.get(report.step, report.step) if self.enable_pruning else None
        roots: list[FaultNode] = []
        for tree_id in request.tree_ids:
            root, pruned = instantiate_tree(self.trees.get(tree_id), request.params, step=step)
            roots.append(root)
            report.pruned.extend(pruned)
        report.potential_fault_count = sum(len([n for n in r.iter_nodes() if n.is_leaf]) for r in roots)
        self._log(
            request,
            f"Performing on demand assertion checking: {request.trigger_detail}."
            f" {report.potential_fault_count} potential faults in total...",
        )
        for root in roots:
            causes = yield from self._visit(root, request, report, cache, span=span)
            report.root_causes.extend(causes)
        report.finished_at = self.engine.now
        if report.no_root_cause:
            self._log(request, "No root cause identified")
        else:
            count = len(report.root_causes)
            noun = "root cause is" if count == 1 else "root causes are"
            self._log(request, f"{count} {noun} identified")
        self.completed.append(report)
        if self._tracer is not None:
            self._tracer.finish(
                span,
                root_causes=len(report.root_causes),
                no_root_cause=report.no_root_cause,
                tests=len(report.tests),
            )
            self._metrics.observe("diagnosis.walk.duration", report.finished_at - report.started_at)
            # Per-walk reuse of diagnostic-test results (§III.B.4): the
            # cache is scoped to this diagnosis, counters aggregate into
            # the run's registry so trace-export shows the reuse rate.
            self._metrics.inc("diagnosis.cache.hits", cache.hits)
            self._metrics.inc("diagnosis.cache.misses", cache.misses)
        return report

    def _visit(
        self,
        node: FaultNode,
        request: DiagnosisRequest,
        report: DiagnosisReport,
        cache: DiagnosisCache,
        span=None,
    ) -> _t.Generator:
        verdict = CONFIRMED if node.test is None else None
        if node.test is not None:
            verdict = yield from self._run_test(node, request, report, cache, span)
        if verdict == EXCLUDED:
            report.excluded_count += 1
            self._log(
                request,
                f"Verified {node.node_id}: fault excluded."
                f" {report.excluded_count}/{report.potential_fault_count} checks excluded",
            )
            return []
        if verdict == INCONCLUSIVE:
            self._log(request, f"Check for {node.node_id} inconclusive; cannot proceed below")
            return []
        # Confirmed (or structural).
        if node.test is not None:
            self._log(request, f"Failed verification at {node.node_id}: {node.description}")
        if node.is_leaf:
            if node.test is None:
                # An untestable leaf can never be confirmed on evidence.
                return []
            return [RootCause(node.node_id, node.description, "confirmed", node.probability)]
        causes: list[RootCause] = []
        for child in node.ordered_children():
            causes.extend((yield from self._visit(child, request, report, cache, span=span)))
        if not causes and node.test is not None:
            # Evidence of a fault here, but nothing below could be pinned
            # down: the paper's "cannot determine why" terminal.
            return [RootCause(node.node_id, node.description, "undetermined", node.probability)]
        return causes

    def _run_test(
        self,
        node: FaultNode,
        request: DiagnosisRequest,
        report: DiagnosisReport,
        cache: DiagnosisCache,
        walk_span=None,
    ) -> _t.Generator:
        test = node.test
        params = dict(test.params)
        params.setdefault("since", request.since)
        key = (test.kind, test.name, tuple(sorted((k, str(v)) for k, v in params.items())))
        # What is reused across nodes is the observation, not the verdict:
        # two nodes may share a test and declare different meanings.
        looked = cache.get(key) if self.enable_cache else None
        cached = looked is not None
        duration = 0.0
        if not cached:
            test_span = None
            if self._tracer is not None:
                test_span = self._tracer.start_span(
                    "test", "diagnosis", parent=walk_span,
                    node=node.node_id, test=test.name, kind=test.kind,
                )
            started = self.engine.now
            # Unresolved variables mean the trigger context was too weak
            # for this test (e.g. purely timer-based detection with no
            # instance id): inconclusive without execution.
            unresolved = [
                k for k, v in params.items() if isinstance(v, str) and v.startswith("$")
            ]
            if unresolved:
                looked = None, {"unresolved": unresolved}, False
            else:
                yield self.engine.timeout(self._test_overhead.sample())
                looked = yield from self._observe(node, test, params, request)
            duration = self.engine.now - started
            cache.put(key, looked)
        observed, evidence, degraded = looked
        # The one place an observation becomes a verdict: seeing the
        # condition confirms the fault, the tree says what not seeing it
        # means for this node, and a test that could not look decides nothing.
        if observed is None:
            verdict = INCONCLUSIVE
        else:
            verdict = CONFIRMED if observed else test.when_not_observed
        report.tests.append(
            TestExecution(
                node_id=node.node_id,
                test_kind=test.kind,
                test_name=test.name,
                verdict=verdict,
                evidence=evidence,
                cached=cached,
                duration=duration,
                degraded=degraded,
            )
        )
        if self._tracer is None:
            return verdict
        if cached:
            # The same observation, re-attributed to this node at no cost.
            hit = self._tracer.start_span(
                "test", "diagnosis", parent=walk_span,
                node=node.node_id, test=test.name, cached=True,
            )
            self._tracer.finish(hit, verdict=verdict)
            self._metrics.inc("diagnosis.tests_cached")
        else:
            self._tracer.finish(test_span, verdict=verdict, degraded=degraded)
            self._metrics.inc(f"diagnosis.tests.{verdict}")
            self._metrics.observe("diagnosis.test.duration", duration)
        return verdict

    def _observe(
        self, node: FaultNode, test: DiagnosticTest, params: dict, request: DiagnosisRequest
    ) -> _t.Generator:
        """Look: ``(observed, evidence, degraded)``.  ``observed`` is True /
        False when the fault condition is / is not there (an on-demand
        assertion: "it failed"), None when the test could not look —
        unknown name, API failure, timeout, degraded plane; never a crashed
        diagnosis.  ``kind`` only selects the registry resolving the name."""
        if test.kind != "assertion":
            self._log(request, f"Verifying {node.node_id}: probe {test.name}")
            observed, evidence = yield from self.probes.run(
                test.name, self.assertions.env, params
            )
            return observed, evidence, bool(evidence.get("degraded"))
        self._log(request, f"Verifying {node.node_id}: {test.name} {params}")
        if test.name not in self.assertions.assertions:
            return None, {"reason": f"unknown assertion {test.name}"}, False
        result = yield from self.assertions.evaluate_on_demand(test.name, params)
        if result.degraded:
            return None, {"reason": "degraded API plane"}, True
        if result.timed_out:
            return None, {"reason": "assertion timed out"}, False
        return result.failed, {"message": result.message, **result.observed}, False

    # -- logging -------------------------------------------------------------------

    def _log(self, request: DiagnosisRequest, message: str) -> None:
        if self.storage is None:
            return
        clock = self.engine.clock
        trace = request.context.trace_id if request.context else "unknown"
        step = request.context.step if request.context else "-"
        record = LogRecord(
            time=self.engine.now,
            source="diagnosis.log",
            message=f"[diagnosis] [{trace}] [{step}] {message}",
            type="diagnosis",
            timestamp=clock.render(),
        )
        record.add_tag(f"trace:{trace}")
        record.add_tag(f"diagnosis:{request.request_id}")
        self.storage.append(record)
