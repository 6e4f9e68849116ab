"""Tests for the fault-tree walking diagnosis engine."""

import pytest

from repro.assertions.base import Assertion, AssertionEnvironment
from repro.assertions.consistent_api import ConsistentApiClient, ConsistentCallError
from repro.assertions.evaluation import AssertionEvaluationService
from repro.cloud.errors import MalformedRequest
from repro.diagnosis.engine import DiagnosisEngine
from repro.diagnosis.tests import CustomTestRegistry
from repro.faulttree.builder import FaultTreeRegistry
from repro.faulttree.tree import DiagnosticTest, FaultTree, node
from repro.logsys.storage import CentralLogStorage
from repro.process.context import ProcessContext
from repro.sim.latency import ConstantLatency


class ScriptedAssertion(Assertion):
    """Assertion whose pass/fail is looked up from a script dict."""

    fault_tree_id = "scripted"

    def __init__(self, assertion_id, script):
        self.assertion_id = assertion_id
        self.script = script

    def evaluate(self, env, params):
        started = env.engine.now
        yield env.engine.timeout(0.05)
        key = params.get("which", "default")
        passed = self.script.get(key, True)
        return self._result(env, passed, f"scripted {key}", params, started)


class UnreadableAssertion(Assertion):
    """Assertion whose read fails after ``delay``: ``evaluate`` lets the
    API failure out, as the library assertions do."""

    fault_tree_id = "scripted"

    def __init__(self, assertion_id, error, delay=0.25):
        self.assertion_id = assertion_id
        self.error = error
        self.delay = delay

    def evaluate(self, env, params):
        yield env.engine.timeout(self.delay)
        raise self.error


#: error an assertion lets out -> (timed_out, degraded) of the failed result
UNREADABLE = {
    "malformed": (MalformedRequest("bad request"), (False, False)),
    "timed-out": (ConsistentCallError("deadline passed", timed_out=True), (True, False)),
    "degraded": (ConsistentCallError("chaos", degraded=True), (False, True)),
}


def build_engine_fixture(engine, script, probe_results=None, tree=None):
    env = AssertionEnvironment(
        engine=engine,
        client=ConsistentApiClient(engine, object(), latency=ConstantLatency(0.01)),
        # No cloud behind this engine: nothing here reads a monitor, region
        # state or CloudTrail.
        monitor=None,
        state=None,
        trail=None,
    )
    storage = CentralLogStorage()
    assertions = AssertionEvaluationService(env, storage=storage)
    assertions.watch("t1", {"asg_name": "asg-x", "desired_capacity": 4, "N": 4})
    assertions.register(ScriptedAssertion("check", script))
    probes = CustomTestRegistry()
    probe_results = probe_results or {}

    def make_probe(name):
        def probe(env_, params):
            yield env_.engine.timeout(0.02)
            return probe_results.get(name, (False, {}))

        return probe

    for name in ("p1", "p2"):
        probes.register(name, make_probe(name))
    trees = FaultTreeRegistry()
    trees.register(tree or default_tree())
    diag = DiagnosisEngine(engine, trees, assertions, probes, storage=storage)
    return diag, storage


def default_tree():
    return FaultTree(
        tree_id="scripted",
        description="scripted tree",
        root=node(
            "root",
            "root event",
            node(
                "gated",
                "gated branch",
                node(
                    "leaf-x",
                    "cause X",
                    test=DiagnosticTest("assertion", "check", params={"which": "x"}),
                    probability=0.9,
                ),
                node(
                    "leaf-y",
                    "cause Y",
                    test=DiagnosticTest("assertion", "check", params={"which": "y"}),
                    probability=0.1,
                ),
                test=DiagnosticTest("assertion", "check", params={"which": "gate"}),
            ),
            node("probed", "probe branch", test=DiagnosticTest("custom", "p1")),
        ),
    )


def fake_assertion_result(engine, params=None):
    from repro.assertions.results import AssertionResult

    return AssertionResult(
        assertion_id="check",
        passed=False,
        detail="failed",
        time=engine.now,
        params=params or {},
        context=ProcessContext(process_id="p", trace_id="t1", step="ready"),
        trace_id="t1",
    )


class TestWalk:
    def test_confirmed_leaf_is_root_cause(self, engine):
        diag, _ = build_engine_fixture(engine, {"gate": False, "x": False, "y": True})
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        assert [c.node_id for c in report.root_causes] == ["leaf-x"]
        assert report.root_causes[0].status == "confirmed"

    def test_excluded_gate_prunes_children(self, engine):
        diag, _ = build_engine_fixture(engine, {"gate": True, "x": False})
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        tested = {t.node_id for t in report.tests}
        assert "leaf-x" not in tested
        assert report.no_root_cause

    def test_confirmed_gate_with_no_confirmed_children_is_undetermined(self, engine):
        diag, _ = build_engine_fixture(engine, {"gate": False, "x": True, "y": True})
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        assert [c.node_id for c in report.root_causes] == ["gated"]
        assert report.root_causes[0].status == "undetermined"

    def test_probe_confirmation(self, engine):
        diag, _ = build_engine_fixture(
            engine,
            {"gate": True},
            probe_results={"p1": (True, {"detail": 1})},
        )
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        assert [c.node_id for c in diag.completed[0].root_causes] == ["probed"]

    def test_all_excluded_reports_no_root_cause(self, engine):
        diag, storage = build_engine_fixture(engine, {"gate": True})
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        assert report.no_root_cause
        logged = storage.query(type="diagnosis")
        assert any("No root cause identified" in r.message for r in logged)
        for record in logged:
            assert record.tags == ["trace:t1", "diagnosis:diag-1"]
            assert (record.tag_value("trace"), record.tag_value("diagnosis")) == ("t1", "diag-1")

    def test_children_visited_by_probability(self, engine):
        diag, _ = build_engine_fixture(engine, {"gate": False, "x": False, "y": False})
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        order = [t.node_id for t in diag.completed[0].tests if t.node_id.startswith("leaf")]
        assert order == ["leaf-x", "leaf-y"]

    def test_unresolved_variables_inconclusive_without_running(self, engine):
        tree = FaultTree(
            tree_id="scripted",
            description="",
            root=node(
                "root",
                "",
                node(
                    "needs-context",
                    "",
                    test=DiagnosticTest("assertion", "check", params={"which": "$instanceid"}),
                ),
            ),
        )
        diag, _ = build_engine_fixture(engine, {}, tree=tree)
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        execution = diag.completed[0].tests[0]
        assert execution.verdict == "inconclusive"
        assert execution.evidence["unresolved"] == ["which"]

    def test_tree_declares_what_not_observed_means(self, engine):
        """The same observation — the probe saw nothing — excludes the
        fault by default and stops the walk below the node when the tree
        says so (no delivered CloudTrail record is not "nobody did it")."""

        def tree(**declared):
            gate = DiagnosticTest("custom", "p1", **declared)
            leaf = node("below", "", test=DiagnosticTest("custom", "p2"))
            return FaultTree("scripted", "", root=node("root", "", node("gate", "", leaf, test=gate)))

        reports = []
        for declared in ({}, {"when_not_observed": "inconclusive"}):
            diag, storage = build_engine_fixture(engine, {}, tree=tree(**declared))
            diag.diagnose_assertion_failure(fake_assertion_result(engine))
            engine.run()
            reports.append((diag.completed[0], [r.message for r in storage.query(type="diagnosis")]))
        (excluded, excluded_log), (stopped, stopped_log) = reports
        assert [(t.node_id, t.verdict) for t in excluded.tests] == [("gate", "excluded")]
        assert [(t.node_id, t.verdict) for t in stopped.tests] == [("gate", "inconclusive")]
        assert (excluded.excluded_count, stopped.excluded_count) == (1, 0)
        assert any("fault excluded" in m for m in excluded_log)
        assert any("inconclusive; cannot proceed below" in m for m in stopped_log)
        assert excluded.no_root_cause and stopped.no_root_cause

    @pytest.mark.parametrize("kind, what", [("assertion", "assertion"), ("custom", "probe")])
    def test_unknown_test_name_is_inconclusive_not_a_crash(self, engine, kind, what):
        """A tree naming a test neither registry knows costs that node its
        verdict; the walk goes on to the siblings."""
        tree = FaultTree(
            "scripted",
            "",
            root=node(
                "root",
                "",
                node("mis-wired", "", test=DiagnosticTest(kind, "ghost"), probability=0.9),
                node("sibling", "", test=DiagnosticTest("custom", "p1"), probability=0.1),
            ),
        )
        diag, _ = build_engine_fixture(engine, {}, probe_results={"p1": (True, {})}, tree=tree)
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        ghost = report.tests[0]
        assert (ghost.node_id, ghost.verdict, ghost.degraded) == ("mis-wired", "inconclusive", False)
        assert ghost.evidence == {"reason": f"unknown {what} ghost"}
        assert [c.node_id for c in report.root_causes] == ["sibling"]

    def test_results_cached_across_nodes(self, engine):
        """Two nodes sharing a test run it once (§III.B.4 reuse)."""
        tree = FaultTree(
            tree_id="scripted",
            description="",
            root=node(
                "root",
                "",
                node("a", "", test=DiagnosticTest("assertion", "check", params={"which": "x"})),
                node("b", "", test=DiagnosticTest("assertion", "check", params={"which": "x"})),
            ),
        )
        diag, _ = build_engine_fixture(engine, {"x": False}, tree=tree)
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        assert [t.cached for t in report.tests] == [False, True]
        first, reused = report.tests
        assert (first.node_id, reused.node_id) == ("a", "b")
        assert (reused.verdict, reused.evidence, reused.duration) == (
            first.verdict, first.evidence, 0.0
        )
        assert first.duration > 0
        assert {c.node_id for c in report.root_causes} == {"a", "b"}

    def test_cached_observation_takes_the_reusing_nodes_meaning(self, engine):
        """What is reused is the observation: a node sharing a test with
        another but declaring a different meaning gets its own verdict."""
        shared = {"kind": "custom", "name": "p1", "params": {"asg_name": "g"}}
        tree = FaultTree(
            "scripted",
            "",
            root=node(
                "root",
                "",
                node("a", "", test=DiagnosticTest(**shared), probability=0.9),
                node(
                    "b",
                    "",
                    test=DiagnosticTest(**shared, when_not_observed="inconclusive"),
                    probability=0.1,
                ),
            ),
        )
        diag, _ = build_engine_fixture(engine, {}, tree=tree)
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        assert [(t.node_id, t.cached, t.verdict) for t in report.tests] == [
            ("a", False, "excluded"),
            ("b", True, "inconclusive"),
        ]
        assert report.excluded_count == 1

    def test_diagnosis_pays_virtual_time(self, engine):
        diag, _ = build_engine_fixture(engine, {"gate": False, "x": False})
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        report = diag.completed[0]
        assert report.duration > 0.3  # startup + tests

    def test_report_counts_potential_faults(self, engine):
        diag, _ = build_engine_fixture(engine, {"gate": True})
        diag.diagnose_assertion_failure(fake_assertion_result(engine))
        engine.run()
        assert diag.completed[0].potential_fault_count == 3  # leaf-x, leaf-y, probed

    def test_assertion_without_tree_not_diagnosed(self, engine):
        diag, _ = build_engine_fixture(engine, {})
        result = fake_assertion_result(engine)
        result.assertion_id = "unknown-assertion"
        assert diag.diagnose_assertion_failure(result) is None

    def test_params_merge_config_context_and_trigger(self, engine):
        diag, _ = build_engine_fixture(engine, {})
        context = ProcessContext(
            process_id="p", trace_id="t1", step="ready", fields={"instanceid": "i-7"}
        )
        merged = diag._merge_params({"num": "4"}, context, "t1")
        assert merged["asg_name"] == "asg-x"
        assert merged["N"] == 4
        assert merged["instanceid"] == "i-7"
        assert merged["num"] == "4"

    def test_timer_failure_reads_its_own_traces_repository(self, engine):
        """A timer-triggered failure carries no context, yet its request
        reads the repository of the trace whose watchdog fired."""
        diag, _ = build_engine_fixture(engine, {})
        diag.assertions.watch("t2", {"asg_name": "asg-y", "desired_capacity": 20, "N": 20})
        result = fake_assertion_result(engine)
        result.context, result.trace_id = None, "t2"
        request = diag.diagnose_assertion_failure(result)
        assert (request.trace_id, request.params["N"], request.params["asg_name"]) == (
            "t2", 20, "asg-y"
        )
        engine.run()
        assert diag.completed[0].trace_id == "unknown"


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_on_demand_api_failure_degrades_the_test_never_the_walk(engine, case):
    """An assertion that lets an API failure out costs its node a verdict,
    not ``engine.run`` an exception: the service turns it into the failed
    result the log/timer path always built, the walk reads its flags."""
    error, (timed_out, degraded) = UNREADABLE[case]
    tree = FaultTree(
        "scripted", "", root=node("only", "", test=DiagnosticTest("assertion", "unreadable"))
    )
    diag, _ = build_engine_fixture(engine, {}, tree=tree)
    diag.assertions.register(UnreadableAssertion("unreadable", error))
    diag.diagnose(["scripted"], "t1")
    engine.run()

    (report,) = diag.completed
    (test,) = report.tests
    (result,) = diag.assertions.results
    assert (result.passed, result.timed_out, result.degraded) == (False, timed_out, degraded)
    assert result.cause == "on-demand"
    assert result.duration == pytest.approx(0.25)
    assert test.degraded is degraded
    if timed_out or degraded:
        # Could not look: decides nothing.
        assert test.verdict == "inconclusive" and report.no_root_cause
    else:
        # A non-retryable error is an answer — a failed check, as on the
        # log/timer path.
        assert test.verdict == "confirmed"
        assert [c.node_id for c in report.root_causes] == ["only"]


def test_conformance_error_prunes_at_last_valid_activity(engine):
    """The orchestrator's terminal error line is diagnosed where the
    process actually was, not at the ``operation_error`` pseudo-step."""
    from repro.faulttree.instantiate import instantiate_tree
    from repro.faulttree.library import shared_standard_fault_trees
    from repro.logsys.record import LogRecord
    from repro.operations.profile import shared_rolling_upgrade_profile
    from repro.operations.steps import WAIT_ASG
    from repro.process.conformance import ERROR, FIT, ConformanceChecker

    tree = shared_standard_fault_trees().get("process-deviation")
    diag, _ = build_engine_fixture(engine, {}, tree=tree)
    requests = []
    profile = shared_rolling_upgrade_profile()
    checker = ConformanceChecker(
        profile.model,
        profile.library,
        storage=CentralLogStorage(),
        on_error=lambda result: requests.append(diag.diagnose_conformance_error(result)),
    )
    lines = [
        "Pushing ami-0abc into group asg-x: rolling upgrade task started",
        "Updated launch configuration of group asg-x to lc-2 with image ami-0abc",
        "Sorted 4 instances of group asg-x for replacement",
        "Deregistered instance i-0a from load balancer elb-x",
        "Terminating instance i-0a in group asg-x",
        "Waiting for group asg-x to start a new instance",
        "Exception during rolling upgrade: instances never became ready",
    ]
    records = [
        LogRecord(time=float(t), source="asgard.log", message=line, tags=["trace:t1"])
        for t, line in enumerate(lines)
    ]
    statuses = [checker.check(record).status for record in records]
    assert statuses == [FIT] * 6 + [ERROR]

    (request,) = requests
    assert request.trigger_detail == "error:operation_error"
    assert request.context.step == WAIT_ASG
    assert request.context.last_valid_activity == WAIT_ASG

    def potential_faults(step):
        return instantiate_tree(tree, step)[1]

    assert potential_faults(request.context.step) > potential_faults("operation_error")


def test_report_lists_what_the_step_scoping_cut(engine):
    """Fig. 5 diagnosed at "New instance ready": the report names exactly
    the ``steps=``-scoped sub-trees that context excludes (here the one
    scoped to the launch-configuration update) and nothing that was kept;
    without a step nothing is cut."""
    from repro.faulttree.library import shared_standard_fault_trees
    from repro.operations.steps import READY

    tree = shared_standard_fault_trees().get("asg-instance-count")
    scoped_out = [
        c.node_id for c in tree.root.children if c.step_context and READY not in c.step_context
    ]
    assert scoped_out == ["create-lc-fails"]

    diag, _ = build_engine_fixture(engine, {}, tree=tree)
    context = ProcessContext(process_id="p", trace_id="t1", step=READY)
    diag.diagnose(["asg-instance-count"], "t1", context=context)
    diag.diagnose(["asg-instance-count"], "t1")
    engine.run()
    at_ready, no_step = sorted(diag.completed, key=lambda r: r.step is None)
    assert (at_ready.step, no_step.step) == (READY, None)
    assert at_ready.pruned == scoped_out
    assert not {t.node_id for t in at_ready.tests} & {"create-lc-fails", "lc-ami-missing"}
    assert no_step.pruned == []
