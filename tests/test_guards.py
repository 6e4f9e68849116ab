"""Deleted names stay deleted: every "stays deleted" guard, in one table.

Each :class:`Guard` is one ``! grep`` over the repository: a pattern,
the paths it searches, the commit that introduced it (``since``) and the
reason.  A guard passes when nothing matches.  The flags of the grep it
replaces are kept exactly:

- ``paths``: a directory is searched recursively (``grep -r``), a file
  or a shell glob (``src/repro/faulttree/*.py``) only as named;
- ``include`` / ``exclude``: ``--include`` / ``--exclude``, a glob on
  the file's base name;
- ``fixed``: ``grep -F``, the pattern is a literal string;
- ``drop``: the ``| grep -v TEXT`` pipe, which drops a hit whose
  ``path:line:text`` output line holds ``TEXT``;
- a basic-regex pattern (no ``-E``) is written as the Python regex it
  means (``render()`` is ``render\\(\\)``).

Bytecode caches (``__pycache__``) are compiled from the files searched,
and this file, which spells every pattern, is not searched.  Each guard
carries a planted ``sample`` line its pattern must match, so a pattern
that can no longer match anything fails instead of passing vacuously.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: This file, relative to the root searched.
THIS = pathlib.Path(__file__).resolve().relative_to(ROOT)


@dataclasses.dataclass(frozen=True)
class Guard:
    pattern: str
    paths: tuple[str, ...]
    since: str
    reason: str
    sample: str
    include: str | None = None
    exclude: str | None = None
    fixed: bool = False
    drop: str | None = None

    def matches(self, line: str) -> bool:
        if self.fixed:
            return self.pattern in line
        return re.search(self.pattern, line) is not None

    def files(self, root: pathlib.Path = ROOT) -> list[pathlib.Path]:
        found: list[pathlib.Path] = []
        for path in self.paths:
            if any(c in path for c in "*?["):
                found.extend(sorted(root.glob(path)))
            elif (root / path).is_dir():
                found.extend(
                    sorted(
                        p for p in (root / path).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts
                    )
                )
            else:
                found.append(root / path)
        return [
            f for f in found
            if f.relative_to(root) != THIS
            and (self.include is None or fnmatch.fnmatch(f.name, self.include))
            and (self.exclude is None or not fnmatch.fnmatch(f.name, self.exclude))
        ]

    def hits(self, root: pathlib.Path = ROOT) -> list[str]:
        """The ``path:line:text`` lines grep would print."""
        out = []
        for file in self.files(root):
            text = file.read_bytes().decode("utf-8", errors="replace")
            name = file.relative_to(root).as_posix()
            for number, line in enumerate(text.split("\n"), 1):
                if self.matches(line):
                    hit = f"{name}:{number}:{line}"
                    if self.drop is None or self.drop not in hit:
                        out.append(hit)
        return out


SRC_EX = ("src/", "examples/")
SRC_TESTS_EX = ("src/", "tests/", "examples/")
SRC_EX_DOCS = ("src/", "examples/", "README.md", "DESIGN.md")
#: The commit that deleted the extensions no live path ran (ROADMAP item 6).
ITEM_6 = "0e8a79b"
#: The commit that deleted the blocks only tests ran (ROADMAP item 18).
ITEM_18 = "1b2e7f9"
#: The commit that declared each operation once (ROADMAP item 14, rung 1).
ITEM_14 = "5f978ed"
#: The commit that made the diagnosis walk bind on the registry's nodes (ROADMAP item 20).
ITEM_20 = "0462d92"
#: The commit that deleted the eventual-consistency model (ROADMAP item 11).
ITEM_11 = "dee40c8"

GUARDS: dict[str, Guard] = {
    "one-replay-engine": Guard(
        r"compiled=|is_dataclass\(",
        ("src/repro/process", "src/repro/logsys", "src/repro/diagnosis", "src/repro/operations"),
        "1b48c44",
        "one replay engine, one matcher, one result shape (neither fork returns unnoticed)",
        "replayer = make(compiled=True)", include="*.py",
    ),
    "one-monitor-store": Guard(
        r"NULL_OBS|NULL_SPAN|NullSpan|RegionSnapshot|REBASE_INTERVAL|ApplyResult|require_version",
        ("src/",), "a9987be",
        "one monitor store, one observability off-state, one remediation executor",
        "span = NULL_SPAN", include="*.py",
    ),
    "one-calling-convention": Guard(
        r"yield (self|client|op|operation)\.call\(", SRC_EX, "e7dcaf4",
        "one calling convention for both API clients (a bare `yield` of a call hands the"
        " engine a generator)",
        "    answer = yield client.call('describe_instances')",
    ),
    "memory-is-owned": Guard(
        r"gc\.(disable|enable|freeze|set_threshold|collect)\(|weakref", ("src/",), "b25e0e8",
        "a run ends in close(); no collector call or weak reference papers over a cycle",
        "    gc.collect()",
    ),
    "a-probe-observes": Guard(
        r"return \(?(CONFIRMED|EXCLUDED|INCONCLUSIVE)|confirm_on",
        ("src/repro/diagnosis/tests.py", "src/repro/faulttree/*.py"), "78cf841",
        "no verdict named in a probe or on the tree model; no per-test strength option",
        "        return (CONFIRMED, evidence)",
    ),
    "one-client": Guard(
        r"jitter=", ("src/",), "d55beb2",
        "the hardened stack has no off-arm",
        "    client = ConsistentApiClient(engine, api, jitter=False)",
    ),
    "one-failure-site": Guard(
        r"except \(CloudError, ConsistentCallError\)", ("src/repro/assertions/library.py",),
        "d55beb2",
        "an assertion never maps an API failure to a result",
        "        except (CloudError, ConsistentCallError):",
    ),
    "one-target-comparison": Guard(
        r"!= *sorted\(", ("src/",), "c319cb0",
        "the four target fields are compared in repro.operations.target only",
        "    if groups != sorted(expected):", exclude="target.py",
    ),
    "one-target-table": Guard(
        r"_LC_FIELDS|FIELD_MAP|_recovery_params|_CONFIG_FAULT", ("src/",), "c319cb0",
        "the four target fields are mapped by repro.operations.target's table only",
        "FIELD_MAP = {'ami': 'image_id'}",
    ),
    "one-fix-table": Guard(
        r"RemediationPlan|plans_for_report|ordered_actions|undo_capture|_MergedReport", SRC_EX,
        "538bf61",
        "a confirmed cause becomes a recovery action in one step; no plan is lifted into another",
        "plan = RemediationPlan(actions)",
    ),
    "one-tag-store": Guard(
        r"_tag_set", ("src/",), "7cd24f7",
        "a record's tags are one list plus one prefix index",
        "        self._tag_set = set(tags)",
    ),
    "subscribers-are-a-tuple": Guard(
        "list(self._subscribers)", ("src/repro/logsys/",), "7cd24f7",
        "a stream's subscribers are a tuple, not copied per record",
        "        for callback in list(self._subscribers):", fixed=True,
    ),
    "guards-are-derived": Guard(
        r"""["'][^"']*(DEBUG|TRACE|heartbeat|polling|for status)[^"']*["'] in """,
        ("src/repro/logsys/",), "b6b3afc",
        "a regex's literal guard comes from guard_literals, not a hand-written list beside it",
        """        if "heartbeat" in message:""",
    ),
    "one-walk": Guard(
        r"DiagnosisCache|enable_pruning|enable_cache", SRC_TESTS_EX, "9239db4",
        "every diagnosis decision lives in repro.diagnosis.walk; its old cache and ablation"
        " switches stay deleted",
        "engine = DiagnosisEngine(enable_cache=False)",
    ),
    "one-cloud-oracle": Guard(
        r"ReferenceAsgController|ReferenceCloudState|_prune_dead_members|activities_for",
        SRC_TESTS_EX, "cd849c8",
        "repro.cloud is checked by the state machine's invariants, not by an old-code copy",
        "reference = ReferenceCloudState()",
    ),
    "one-diagnosis-path": Guard(
        r"OfflineAnalyzer|resolve_undetermined|all_records|TimelineEntry|\.firings\b"
        r"|confirmed_causes\(|cause_ids\(",
        SRC_EX, "2612846",
        "a post-mortem is a later walk through the one engine; the second decision table and"
        " the dead names stay deleted",
        "analyzer = OfflineAnalyzer(testbed)",
    ),
    "reached-by-an-entry-point": Guard(
        r"CentralLogProcessor|diagnose_external|RandomTerminationProcess|LogReplayer|snapshot_of"
        r"|sweep_(chaos|interference|cluster_size|transient_rate)",
        SRC_EX, "787f1c2",
        "the inert central processor and the code only its own tests called stay deleted",
        "points = sweep_chaos(levels)",
    ),
    "a-test-runs-what-ships": Guard(
        r"ServiceChaos|per_service|ChaosEvent|conformance_calls|assertion_calls"
        r"|passthrough_regexes",
        SRC_EX, "57f10d3",
        "options only a test set are constants; their per-record tallies and override"
        " branches stay deleted",
        "        self.conformance_calls += 1",
    ),
    "one-snapshot-per-write": Guard(
        r"_intern\b|snapshot\.(shared|copied)|_containers\(", SRC_EX, "a1f844f",
        "a write shares only with its resource's previous entry; the region-wide intern"
        " pool and its counters stay deleted",
        "        self._count('cloud.snapshot.shared')",
    ),
    "one-event-kind": Guard(
        r"AnyOf|any_of|Interrupt\b|\.interrupt\(|_parked|StopSimulation|Event\.fail"
        r"|OneOffTimer|PeriodicTimer|TimerFiring|watchdog=True|install_watchdog",
        SRC_EX, "8ce19aa",
        "a process yields only a Timeout; POD arms only its per-trace watchdog; the SimPy"
        " surface and the other timers stay deleted",
        "        yield engine.any_of([first, second])",
    ),
    "one-stamp": Guard(
        r"render\(\)", ("src/repro",), "4eeef2a",
        "no emitter renders a clock's now; a stamp is rendered when read",
        "        stamp = self.clock.render()", include="*.py", drop="src/repro/sim/clock.py",
    ),
    "one-describe-read-path": Guard(
        r"\.describe\(\) for", ("src/repro/cloud/api.py",), "4eeef2a",
        "a member describe is the recorded view, not a fresh describe()",
        "        return [member.describe() for member in members]",
    ),
    "one-write-path": Guard(
        r"record_write|share_unchanged|ApiCallRecord", SRC_TESTS_EX, "4ac5dfe",
        "a resource changes only through CloudState.write; an API call is recorded once",
        "        state.record_write(kind, identifier)",
    ),
    "a-span-is-recorded-once": Guard(
        r"attach_obs|span\._tracer", SRC_TESTS_EX, "e008f82",
        "a span is read from a record at export; data-plane counters are not mirrored",
        "    state.attach_obs(obs)",
    ),
    "metrics-read-at-export": Guard(
        r"obs\.metrics|self\._metrics|metrics\.inc\(|gauge_max\(", SRC_EX, "b471cc2",
        "a run's metrics are read at export by repro.obs.run_metrics; no component holds a"
        " registry or counts for it",
        "        self._metrics = obs.metrics if obs else None",
    ),
    "no-assertion-generation": Guard(
        r"generate_assertions|measure_step_gaps|calibrate_watchdog", SRC_EX_DOCS, ITEM_6,
        "generated bindings ran the paper campaign at 187 false positives against 5; the"
        " assertion set is the hand-written library",
        "    generated = generate_assertions(model, library)",
    ),
    "no-assertion-spec-language": Guard(
        r"parse_assertion_spec", SRC_EX_DOCS, ITEM_6,
        "only its own example ran the spec language",
        "    assertion, params = parse_assertion_spec(spec)",
    ),
    "no-json-serializers": Guard(
        r"(model|tree)_(to|from)_dict", SRC_EX_DOCS, ITEM_6,
        "models and trees export as DOT only; nothing read or wrote their JSON",
        "    document = tree_to_dict(tree)",
    ),
    "no-storage-mining": Guard(
        r"(mine|traces)_from_storage", SRC_EX_DOCS, ITEM_6,
        "the model is mined from raw lines (repro mine), not from central storage",
        "    model = mine_from_storage(pod.storage)",
    ),
    "no-step-aliases": Guard(
        r"step_aliases", SRC_EX_DOCS, ITEM_6,
        "the trees are scoped by the rolling upgrade's own step names",
        "        step = self.step_aliases.get(report.step, report.step)",
    ),
    "one-operation-profile": Guard(
        r"bluegreen|BlueGreen", SRC_EX_DOCS, ITEM_6,
        "POD watches the rolling upgrade through shared_rolling_upgrade_profile(); the"
        " blue/green tenant ran only in its own example and tests",
        "from repro.operations.bluegreen import BlueGreenOperation",
    ),
    "no-and-gateway": Guard(
        r"mark_parallel_|parallel_splits|parallel_joins", SRC_EX_DOCS, ITEM_18,
        "the Fig. 2 model has no AND gateway and mining finds none; every gateway is XOR",
        "    model.mark_parallel_split(\"a\")",
    ),
    "no-process-suspension": Guard(
        r"suspend_processes|resume_processes|suspended_processes|SuspendedProcesses",
        SRC_EX_DOCS, ITEM_18,
        "no operation suspends an ASG's scaling processes; the controller always reconciles",
        "        api.suspend_processes(asg, [\"Launch\"])",
    ),
    "no-thaw": Guard(
        r"thaw\(", SRC_EX_DOCS, ITEM_18,
        "nothing in the product edits a frozen view, so there is no mutable copy to ask for",
        "    scratch = view.thaw()",
    ),
    "no-log-files": Guard(
        r"read_log_file|write_log_file", SRC_EX_DOCS, ITEM_18,
        "the ledger reads its corpus from text with read_log; nothing reads or writes a file",
        "    records = read_log_file(path)",
    ),
    "no-logstash-rendering": Guard(
        r"to_logstash", SRC_EX_DOCS, ITEM_18,
        "nothing ships a record in Logstash's JSON form; storage holds the records",
        "    document = record.to_logstash()",
    ),
    "no-walk-cache-counters": Guard(
        r"cache\.hits|cache\.misses|tests_cached", SRC_EX_DOCS, ITEM_18,
        "they read 0, equal to another counter, or the sum of the verdict counters on every run",
        '        count("diagnosis.tests_cached", hits)',
    ),
    "one-declaration-per-operation": Guard(
        r"PodConfig|pod_config|operation_start", SRC_EX_DOCS, ITEM_14,
        "RollingUpgradeParams declares an operation once; POD holds no per-operation fact",
        "        self.pod_config.operation_start = self.engine.now",
    ),
    "a-repository-per-trace": Guard(
        r"env\.config\[", SRC_EX_DOCS, ITEM_14,
        "a trace's repository is built once when it is watched; nothing patches it after",
        '        self.pod.env.config["since"] = self.engine.now',
    ),
    "fault-nodes-built-by-the-tree-model": Guard(
        r"FaultNode\(", ("src/repro",), ITEM_20,
        "diagnosis walks the registry's own nodes; only the tree model's constructor builds one",
        "    return FaultNode(node_id=node.node_id, description=description)",
        include="*.py", drop="src/repro/faulttree/tree.py:",
    ),
    "no-tree-instantiation-copy": Guard(
        r"def _instantiate\b", SRC_EX, ITEM_20,
        "the walk binds each $var when it visits; no per-request copy of a tree",
        "def _instantiate(node, params, step, pruned):",
    ),
    "no-test-copy": Guard(
        r"dataclasses\.replace\(test\b", SRC_EX, ITEM_20,
        "a test's params are bound into a new dict at the look, not into a copied test",
        "        test = dataclasses.replace(test, params=substitute_params(test.params, params))",
    ),
    "no-consistency-model": Guard(
        r"ConsistencyModel|EventuallyConsistentView|consistency_lag|read_consistent",
        SRC_EX_DOCS, ITEM_11,
        "every describe answers with the latest version; CloudAPI._read is the one place"
        " that decides a describe's answer",
        "        self.view = EventuallyConsistentView(state, engine.clock, consistency)",
    ),
    "no-consistent-flag": Guard(
        r"consistent=", SRC_EX_DOCS, ITEM_11,
        "no describe takes a consistency flag; there is one kind of read",
        '        asg = yield from self.call("describe_auto_scaling_group", name, consistent=True)',
    ),
    "no-read-mix-counters": Guard(
        r"cloud\.reads\.", SRC_EX_DOCS, ITEM_11,
        "with one kind of read there is no stale/fresh split to count",
        '            self.state._count("cloud.reads.stale")',
    ),
    "one-record-per-verdict": Guard(
        r"LogRecord\(", ("src/repro/process/conformance.py",), "764031d",
        "central storage holds the checker's own verdict; no second record is built per check",
        "        self.storage.append(LogRecord(time=time, source=source, message=message))",
    ),
    "annotation-tags-built-once": Guard(
        r'add_tag\(f"', ("src/repro/logsys/annotator.py",), "ce60d7b",
        "the annotators' tags are split once per pattern, binding or trace, not per record",
        '            record.add_tag(f"assert:{assertion_id}")',
    ),
    "monitor-reads-the-history": Guard(
        r"_write_log|\bwrites_since\b|data_plane_counters", ("src/",), "1fa4af6",
        "a crawl records the region's write position; the history is the one write stream",
        "        written = dict.fromkeys(state.writes_since(self._log_position))",
    ),
    "monitor-holds-no-views": Guard(
        r"latest_view", ("src/repro/cloud/monitor.py",), "1fa4af6",
        "the monitor copies no view; it reads the history as of each crawl's position",
        "            views.append(state.latest_view(*key))",
    ),
    "every-verdict-stored-once": Guard(
        r"LogRecord\(",
        ("src/repro/diagnosis/engine.py", "src/repro/assertions/evaluation.py"), "a96f2b8",
        "central storage holds the assertion result and the diagnosis line themselves; no"
        " second record is built per verdict",
        '        self.storage.append(LogRecord(time=now, source="diagnosis.log", message=text))',
    ),
    "one-id-per-cause": Guard(
        r"lc-wrong-|registration-launch-failing|deviation-launch-failing|deviation-elb-unavailable"
        r"|_wrong_config_children\([^)]|_launch_failing_subtree\([^)]",
        ("src", "examples"), "a6e0596",
        "a root cause has one node id in every tree: a shared sub-tree is built under one"
        " name, so no table names a cause twice",
        '                    *_wrong_config_children(prefix="lc-"),',
    ),
    "tracing-runs-no-code": Guard(
        r"_tracer|start_span|activate\(|obs=", ("src/",), "e6e5ef5",
        "a run's trace is read from its records at export: no component takes obs= or"
        " holds a tracer, so tracing changes no code that runs",
        "        self._tracer = obs.tracer if obs else None",
        drop="src/repro/obs/",
    ),
    "a-request-is-its-report": Guard(
        r"DiagnosisRequest", SRC_TESTS_EX, "e3a8c8f",
        "a diagnosis request is its report: the report holds the params and context it was"
        " walked with, so nothing keeps them apart from it",
        "        request = DiagnosisRequest(",
    ),
    "retries-and-a-deadline": Guard(
        r"CircuitBreaker|RetryBudget|retry_budget|breaker|budget_denials", ("src/",), "587d706",
        "the consistent API layer is the paper's retry and timeout: no circuit breaker and no"
        " retry budget, which bought no scored number",
        "        self.retry_budget = retry_budget or RetryBudget()",
    ),
    "one-pool-path": Guard(
        r"execute_chunk|specs_per_chunk|CHUNKS_PER_WORKER|as_completed", ("src/",), "94f9cf7",
        "a campaign is one delivery loop over map or ProcessPoolExecutor.map, in spec order; no"
        " chunk scheduler of its own, which bought nothing measurable at 2 workers",
        "        for future in concurrent.futures.as_completed(futures):",
    ),
    "one-scoring-pass": Guard(
        r"interference_detected_total|total_fp\b|total_correct|_diagnosed_interference"
        r"|(faults_injected|faults_detected|interference_detected|false_positives): int"
        r"|(first_detection_at|first_detection_kind|conformance_before_assertion)(=|: )"
        r"|degraded_verdicts=sum",
        ("src/",), "5449c23",
        "a campaign is scored once: the per-fault buckets are the only tally, an outcome's"
        " reports are grouped once per score, and an outcome stores no view of its own"
        " detections or reports",
        "        first_detection_at=first[\"time\"] if first else None,",
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_sample_matches(name):
    guard = GUARDS[name]
    assert guard.matches(guard.sample), f"{name}: the pattern no longer matches its sample"


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_finds_nothing(name):
    guard = GUARDS[name]
    assert guard.files(), f"{name}: no file to search; a path moved"
    assert guard.hits() == [], f"{name} (since {guard.since}): {guard.reason}"


def test_flags_behave_as_grep(tmp_path):
    def plant(name: str, text: str) -> None:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    plant("src/a.py", "x = 1\nhit()\n")
    plant("src/deep/b.txt", "hit()\n")
    plant("src/deep/__pycache__/b.cpython-311.pyc", "hit()\n")
    plant("src/keep.py", "hit() in keep\n")
    plant("src/top/c.py", "hit()\n")
    plant("src/top/sub/d.py", "hit()\n")
    recursive = Guard(r"hit\(\)", ("src/",), "", "", "hit()")
    assert recursive.hits(tmp_path) == [
        "src/a.py:2:hit()", "src/deep/b.txt:1:hit()", "src/keep.py:1:hit() in keep",
        "src/top/c.py:1:hit()", "src/top/sub/d.py:1:hit()",
    ]
    include = dataclasses.replace(recursive, include="*.py", exclude="keep.py")
    assert include.hits(tmp_path) == [
        "src/a.py:2:hit()", "src/top/c.py:1:hit()", "src/top/sub/d.py:1:hit()",
    ]
    assert dataclasses.replace(recursive, drop="top/").hits(tmp_path) == [
        "src/a.py:2:hit()", "src/deep/b.txt:1:hit()", "src/keep.py:1:hit() in keep",
    ]
    # A glob is not recursive; a fixed string is not a regex.
    assert dataclasses.replace(recursive, paths=("src/top/*.py",)).hits(tmp_path) == [
        "src/top/c.py:1:hit()",
    ]
    fixed = Guard("hit()", ("src/a.py",), "", "", "hit()", fixed=True)
    assert fixed.hits(tmp_path) == ["src/a.py:2:hit()"]
    assert not fixed.matches("hit")
