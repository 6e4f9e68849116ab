"""The caller-count audit of ``src/repro`` (ROADMAP item 5), kept true.

A public name — a top-level function, class or constant, or a public
method — that nothing in ``src/``, ``examples/`` or ``benchmarks/`` names
outside its own definition is either deleted or listed in
:data:`JUSTIFIED` with a reason a reviewer can check.  The scan is by
*name* (``\\bname\\b`` over the three trees), so a method sharing its
name with a called one is never flagged and a mention in a docstring
counts as a reference: it finds what nothing names at all, which is the
class of thing that rots unnoticed.

A new unreferenced name fails the test (delete it, call it, or justify
it); so does a stale entry (the name went away or gained a caller).

The *parameter* rung asks the same of options: a defaulted parameter of a
public function, public method or ``__init__`` that no call in ``src/``,
``examples/``, ``benchmarks/`` or ``tools/`` ever passes is a constant
wearing an option's clothes — it becomes the constant, or gets a reason in
:data:`UNSET_PARAMETERS`.  ``tests/`` is not a caller: an option only a
test sets is a configuration no run ships, so tier-1 tests the value the
product uses.  ``examples/`` is, because the reach rung runs every example
as an entry point.
"""

import ast
import collections
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Unreferenced in src/, examples/ and benchmarks/, kept on purpose.
JUSTIFIED: dict[str, str] = {
    "peek": "the cloud state machine's until_boot (tests/cloud/test_cloud_machine.py)"
            " steps the engine to the next boot with it",
    # CloudAPI symmetry: every create_* has its delete_*; two of the five
    # (delete_key_pair, delete_security_group) are recovery undo calls.
    "delete_launch_configuration": "CloudAPI create/delete symmetry; tests/cloud/test_api.py",
    "delete_load_balancer": "CloudAPI create/delete symmetry; tests/cloud/test_api.py",
    "deregister_image": "CloudAPI create/delete symmetry (register_image); tests/cloud/test_api.py",
    # Names the paper gives.
    "to_logstash": "paper §IV ships records in Logstash's JSON event form; tests/logsys/test_record.py",
    "SEQUENCE": "Fig. 2's happy-path step order; tests/operations/test_rolling_upgrade.py"
                " checks the pattern library covers it",
    # README / DESIGN §3 extensions, each with its own suite.
    "generate_assertions": "README 'automatic assertion generation' (repro.assertions.generation,"
                           " no caller outside its suite); tests/assertions/test_generation.py",
    "measure_step_gaps": "watchdog calibration half of the same extension; tests/assertions/test_generation.py",
    "model_to_dict": "README model JSON export (repro.process.serialize); tests/process/test_serialize.py",
    "model_from_dict": "inverse of model_to_dict; tests/process/test_serialize.py",
    "tree_to_dict": "README tree JSON export (repro.faulttree.serialize); tests/process/test_serialize.py",
    "tree_from_dict": "inverse of tree_to_dict; tests/process/test_serialize.py",
    "read_log_file": "file edge of raw-log ingestion (DESIGN §3 extensions, repro.logsys.ingest);"
                     " tests/logsys/test_ingest.py round-trips a file",
    "write_log_file": "inverse of read_log_file; same round-trip test",
    # Read by oracles and completeness checks under tests/.
    "prefilter_plan": "tests/logsys/test_compiled.py + test_compiled_property.py read the"
                      " prefilter through it instead of the private _plan",
    "enabled_transitions": "the interpreted-replay oracle tests/process/reference_replay.py reads it",
    "KNOWN_UNMAPPED": "tests/recovery/test_plan.py::test_catalog_covers_every_fault_tree_leaf:"
                      " leaves that deliberately have no catalog row",
}

#: ROADMAP item 5 asked "what runs it?" of these too.  Each *has* a caller
#: the scan sees (an example, a package export), so it is not in JUSTIFIED;
#: the answer is recorded here, and the names must keep resolving so the
#: record cannot outlive its subject.  What only says "a CLI subcommand runs
#: it" is gone: tests/test_reachability.py runs every subcommand and checks.
KEPT_WITH_CALLERS: dict[str, str] = {
    "repro.operations.bluegreen": "second tenant of OperationProfile: examples/bluegreen_deploy.py,"
                                  " tests/operations/test_bluegreen.py, tests/recovery/test_resume.py",
    "repro.diagnosis.offline": "the write-history flap finder, item 8's subject:"
                               " examples/offline_postmortem.py, tests/diagnosis/test_offline.py",
    "repro.assertions.spec": "README assertion spec language: examples/assertion_spec_demo.py",
    "repro.evaluation.parallel:execute_specs": "runner= is the seam the dead-worker and determinism"
                                               " tests substitute (tests/evaluation/test_parallel_campaign.py)",
    "repro.recovery.supervisor:recover_run": "budget= names the never-hangs bound that ROADMAP 3(d)"
                                             " is to assert on, rather than burying a literal;"
                                             " tests/recovery/test_campaign_recovery.py spends it",
}


#: Defaulted parameters no live caller passes, kept on purpose.
UNSET_PARAMETERS: dict[str, str] = {
    # The AWS surface: CloudAPI mirrors the call it stands in for.
    "CloudError:code": "AWS error codes are per class; an instance may carry another,"
                       " as a botocore ClientError does",
    "create_security_group:description": "EC2 CreateSecurityGroup's GroupDescription",
    "register_image:image_id": "EC2 RegisterImage names the image it registers",
    "lookup_events:principal": "CloudTrail LookupEvents' Username attribute filter",
    "terminate_instance_in_auto_scaling_group:decrement_desired_capacity":
        "Auto Scaling TerminateInstanceInAutoScalingGroup's"
        " ShouldDecrementDesiredCapacity",
    "describe_image:consistent": "passed live through ResourceExistsAssertion.DESCRIBERS'"
                                 " computed method name, which this scan cannot see;"
                                 " ROADMAP item 11's subject",
    "describe_key_pair:consistent": "as describe_image:consistent",
    "describe_security_group:consistent": "as describe_image:consistent",
    # Oracle inputs: the interpreted-replay oracle drives this one.
    "fire:force": "ProcessModel.fire(force=) is how the interpreted-replay oracle"
                  " (tests/process/reference_replay.py) replays an unfit trace",
    # Seams that already exist for a reason of their own.
    "execute_specs:runner": "the seam KEPT_WITH_CALLERS records for execute_specs",
    "UniformLatency:seed": "every latency model draws from its own seeded stream"
                           " (repro.sim.latency's determinism-under-extension rule)",
    # Roadmap subjects.
    "diagnose:context": "a post-mortem's process context (ROADMAP item 8)",
    "generate_assertions:gap_samples": "watchdog calibration from measured step gaps"
                                       " (ROADMAP item 6)",
    "BlueGreenOperation:checkpoint": "resuming a blue/green deploy (ROADMAP item 6)",
    "recover_run:budget": "the only handle on the never-hang bound's budget-exhausted"
                          " exit (tests/recovery/test_campaign_recovery.py)",
}


def _public_definitions() -> collections.Counter:
    """Public top-level names and public methods of ``src/repro``, by name."""
    defined: collections.Counter = collections.Counter()

    def add(name: str) -> None:
        if not name.startswith("_"):
            defined[name] += 1

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node.name)
            elif isinstance(node, ast.ClassDef):
                add(node.name)
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(member.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        add(target.id)
    return defined


def _mentions() -> collections.Counter:
    """How often each identifier-shaped word occurs in the three trees."""
    words: collections.Counter = collections.Counter()
    for tree in ("src", "examples", "benchmarks"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            words.update(re.findall(r"\b[A-Za-z_][A-Za-z0-9_]*\b", path.read_text()))
    return words


def test_every_public_name_has_a_caller_or_a_reason():
    defined = _public_definitions()
    mentions = _mentions()
    # A definition mentions its own name once; anything beyond is a reference.
    unreferenced = {name for name, count in defined.items() if mentions[name] <= count}
    assert unreferenced - set(JUSTIFIED) == set(), "no caller and no reason: delete, call or justify"
    assert set(JUSTIFIED) - unreferenced == set(), "stale entries: the name is gone or has a caller"


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _passed() -> tuple[dict[str, set[str]], collections.Counter]:
    """What the four live trees pass, by callee *name*: the keywords, and
    the most positional arguments any one call gives.

    A call is also booked to the name it dispatches on — ``cls(...)``
    inside a class, ``partial(f, ...)``, and ``client.call("method", ...)``
    (the one calling convention of both API clients) — and a function
    that forwards its ``**kwargs`` lends its keywords to what it calls.
    """
    keywords: dict[str, set[str]] = collections.defaultdict(set)
    positional: collections.Counter = collections.Counter()
    forwards: list[tuple[str, str]] = []

    def book(name: str, call: ast.Call, skipped: int) -> None:
        keywords[name].update(k.arg for k in call.keywords if k.arg)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        positional[name] = max(positional[name], 99 if starred else len(call.args) - skipped)

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, ast.FunctionDef) and node.args.kwarg:
            forwards.extend(
                (node.name, _callee(call))
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and any(
                    k.arg is None and getattr(k.value, "id", None) == node.args.kwarg.arg
                    for k in call.keywords
                )
            )
        elif isinstance(node, ast.Call) and _callee(node):
            name = _callee(node)
            book(owner if name == "cls" and owner else name, node, 0)
            first = node.args[0] if node.args else None
            if name == "partial" and isinstance(first, (ast.Name, ast.Attribute)):
                book(getattr(first, "attr", None) or first.id, node, 1)
            elif isinstance(first, ast.Constant) and isinstance(first.value, str):
                book(first.value, node, 1)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for tree in ("src", "examples", "benchmarks", "tools"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            visit(ast.parse(path.read_text()), None)
    for _ in range(3):  # a forwarder may call a forwarder
        for forwarder, target in forwards:
            if target:
                keywords[target] |= keywords[forwarder]
    return keywords, positional


def _unset_parameters() -> set[str]:
    """``callee:parameter`` for every defaulted parameter nothing passes."""
    keywords, positional = _passed()
    unset: set[str] = set()

    def check(callee: str, function: ast.FunctionDef, bound: bool) -> None:
        spec = function.args
        ordered = (spec.posonlyargs + spec.args)[1 if bound else 0:]
        first_default = len(ordered) - len(spec.defaults)
        candidates = [(p.arg, i) for i, p in enumerate(ordered) if i >= first_default]
        candidates += [(p.arg, None) for p, d in zip(spec.kwonlyargs, spec.kw_defaults) if d]
        for name, index in candidates:
            by_position = index is not None and positional[callee] > index
            if name not in keywords[callee] and not by_position:
                unset.add(f"{callee}:{name}")

    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if node.__class__ is ast.FunctionDef and not node.name.startswith("_"):
                check(node.name, node, bound=False)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if not isinstance(member, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in member.decorator_list)
                    if member.name == "__init__":
                        check(node.name, member, bound=True)
                    elif not member.name.startswith("_"):
                        check(member.name, member, bound=not static)
    return unset


def test_every_defaulted_parameter_is_passed_by_something_or_has_a_reason():
    unset = _unset_parameters()
    assert unset - set(UNSET_PARAMETERS) == set(), (
        "no live caller passes it: make it the constant it is, or justify"
    )
    assert set(UNSET_PARAMETERS) - unset == set(), "stale entries: the parameter is gone or is passed"


def test_kept_names_still_exist():
    for dotted in KEPT_WITH_CALLERS:
        module_name, _, attribute = dotted.partition(":")
        module = importlib.import_module(module_name)
        assert not attribute or hasattr(module, attribute), dotted


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never reads (stdlib ``ast``, no linter).

    A use is any ``Name`` — the root of a dotted access included — or a
    string that is exactly the name (an ``__all__`` entry, a quoted
    annotation).  ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in imported.items()
        if name not in used
    ]


def test_no_unused_imports_in_src():
    """``__init__.py`` files import to re-export, so they are skipped."""
    unused = [
        finding
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if path.name != "__init__.py"
        for finding in _unused_imports(path)
    ]
    assert unused == [], "imported and never read: delete the import"


def test_the_consistent_api_client_is_built_at_one_site():
    """One API plane (ROADMAP item 1(h)): both of POD's clients come from
    ``PODDiagnosis._client``, so there is one configuration to harden,
    wrap in chaos, and hang per-test API-health state on."""
    sites = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ConsistentApiClient"
    ]
    assert len(sites) == 1 and sites[0].startswith("src/repro/pod/service.py:"), sites


def test_the_diagnosis_walk_does_no_io():
    """The walk is a function of the tree and the observations it is sent
    (ROADMAP item 7): its module imports the knowledge base's words and the
    report's records, and names no engine, tracer or storage.  The driver
    (``DiagnosisEngine``) does the looking, the waiting and the writing."""
    tree = ast.parse((ROOT / "src" / "repro" / "diagnosis" / "walk.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    forbidden = ("repro.sim", "repro.cloud", "repro.assertions", "repro.obs", "repro.logsys")
    assert not [m for m in imported if m.startswith(forbidden)], imported
    assert {m for m in imported if m.startswith("repro")} <= {
        "repro.faulttree.tree", "repro.diagnosis.report"
    }, imported
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.arg))
    }
    assert not names & {"engine", "tracer", "storage"}, names & {"engine", "tracer", "storage"}
