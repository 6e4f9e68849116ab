"""The audit's runtime rung: ``src/`` is what a live entry point runs, line by line.

``tests/test_public_surface.py`` finds names nothing *mentions* and
parameters nothing *passes*; it cannot see code that only its own tests
run.  This rung runs every live entry point — each CLI subcommand
(:data:`COMMANDS`) and every ``examples/*.py`` with its defaults — in one
fresh interpreter, with one ``sys.settrace`` hook installed *before*
``repro`` is imported (installed after, the functions a class body calls at
import time would look unrun).  The hook follows only frames of
``src/repro`` and records, per file, every line that ran and the first
line of every code object that was called.

A function in ``src/repro`` (any function: public, private, method or
nested) needs an entry in :data:`RUN_ONLY_BY` when it never ran, or when
it holds a run of :data:`RUN` or more consecutive statements (in source
order) that never ran.  Exempt are properties, abstract bodies (only
``raise NotImplementedError``), ``__repr__`` / ``__str__``, names
``tests/test_public_surface.py``'s ``JUSTIFIED`` answers for, and the
statements of a block that only raises: an error path is safety code.

An entry's reason is one of :data:`KINDS` and names the file that runs the
block.  A block with none of those reasons is deleted.  A missing entry
fails, and so does a stale one (the function went away, or live entry
points now run all of it).  An entry point that raises or prints nothing
fails by name.

By hand: ``PYTHONPATH=src python tests/test_reachability.py OUT_DIR``
writes ``OUT_DIR/reach.json``; :func:`needs_reason` of that JSON lists
what would fail, and :func:`unrun` counts its never-run statements.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import importlib.util
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
import time
import traceback
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: The CLI entry points, by test id; ``{out}`` is the run's output
#: directory.  The three campaign profiles (plain, severe chaos + recover,
#: traced) come in through ``campaign`` and ``trace-export``.  Five runs
#: per fault is the smallest campaign at the default seed whose specs
#: include a second team's pressure, so the interference and account-limit
#: branches count as live.
COMMANDS: dict[str, list[str]] = {
    "demo": ["demo"],
    "campaign": ["campaign", "--runs", "5"],
    "campaign-severe-recover": [
        "campaign", "--runs", "1", "--chaos", "severe", "--recover",
        "--json", "{out}/campaign.json", "--report", "{out}/report.md",
    ],
    "recover": ["recover", "--inject-at", "40", "--json", "{out}/recover.json"],
    "chaos-sweep": [
        "chaos-sweep", "--runs", "1", "--levels", "none,severe", "--json", "{out}/sweep.json",
    ],
    "trace-export": ["trace-export", "--json", "{out}/trace.json", "--tree", "sg_wrong-01"],
    "mine": ["mine"],
    "mine-dot": ["mine", "--dot"],
    "trees": ["trees"],
    "trees-dot": ["trees", "--dot", "asg-instance-count"],
}

#: The shortest run of consecutive never-run statements that needs a reason.
RUN = 3

#: The reasons a block may have for running only outside live entry
#: points, each with what the entry's file names.  A block with none of
#: them is deleted.
KINDS: dict[str, str] = {
    "error": "an error path; the file is its test",
    "pool": "a pool or ledger path; the file is its caller",
    "paper": "a paper mechanism campaigns never trigger; the file is its ablation",
    "oracle": "an oracle tests compare against; the file compares",
    "seam": "a test seam that substitutes a fake; the file substitutes it",
}

#: ``module:Qualname`` under ``repro`` -> (kind, the file that runs the
#: block — ``path`` or ``path::test`` from the repository root — and why).
RUN_ONLY_BY: dict[str, tuple[str, str, str]] = {
    # Error paths.  A block that only raises needs no entry; these do more.
    "cli:_cmd_campaign": ("error", "tests/test_cli.py::test_crashed_run_is_named_on_stderr",
                          "the warning that names each crashed run"),
    "evaluation.campaign:RunOutcome.failure": (
        "error", "tests/evaluation/test_parallel_campaign.py::test_one_crashing_run_does_not_kill_campaign",
        "crash isolation: a run that raises becomes a failed outcome"),
    "operations.base:Operation._wrapped": (
        "error", "tests/operations/test_base.py::test_unexpected_exception_surfaces_as_failure",
        "an operation that raises fails with a log line instead of killing the engine"),
    "recovery.engine:RecoveryEngine.execute": (
        "error", "tests/recovery/test_engine.py::test_dependent_action_blocked_by_failed_dependency",
        "a blocked or failed action aborts the plan and escalates"),
    "recovery.engine:RecoveryEngine._run_action": (
        "error", "tests/recovery/test_engine.py::test_partial_failure_compensates_and_escalates",
        "an action whose API call or verification fails"),
    "recovery.engine:RecoveryEngine._compensate": (
        "error", "tests/recovery/test_engine.py::test_partial_failure_compensates_and_escalates",
        "the saga's roll-back of the applied prefix"),
    "recovery.supervisor:recover_run": (
        "error", "tests/recovery/test_campaign_recovery.py",
        "TestEscalationReason takes each ESCALATED exit the seeded campaigns do not"),
    "cloud.api:CloudAPI.delete_security_group": (
        "error", "tests/recovery/test_engine.py::test_partial_failure_compensates_and_escalates",
        "the undo of a security-group recreate (recovery.plan)"),
    "cloud.api:CloudAPI.delete_key_pair": (
        "error", "tests/cloud/test_cloud_machine.py",
        "the undo of a key-pair recreate (recovery.plan); compensation runs it"),
    # The pool and the ledger: no entry point here starts a pool (a pool's
    # children run outside the hook), and the ledger is not an entry point.
    "evaluation.parallel:_deliver": (
        "error", "tests/evaluation/test_parallel_campaign.py::test_dead_worker_fails_every_run_not_yet_delivered",
        "a pool that broke mid-map: every spec not yet delivered becomes a failure record"),
    "evaluation.parallel:resolve_workers": ("pool", "tests/evaluation/test_parallel_campaign.py",
                                            "clamping a worker count above 1 to the cores"),
    "evaluation.parallel:warm_worker": ("pool", "benchmarks/e2e/workloads.py",
                                        "the pool initializer; the ledger warms its process with it"),
    "logsys.ingest:read_log": ("pool", "benchmarks/e2e/workloads.py",
                               "the ledger's ingest_replay corpus reader"),
    "logsys.ingest:parse_line": ("pool", "benchmarks/e2e/workloads.py", "read_log's per-line half"),
    "cloud.api:CloudAPI.terminate_instance": (
        "pool", "benchmarks/e2e/tests/test_boundaries.py",
        "EC2 TerminateInstances; the ledger's boundary self-test wraps it by name"),
    # Paper mechanisms no campaign triggers.
    "faulttree.builder:FaultTreeRegistry.extend": (
        "paper", "tests/faulttree/test_tree.py::test_extend_grafts_subtree",
        "§VI.A's account-limit amendment: a learned cause grafted onto a tree"),
    "faulttree.tree:FaultTree.find": ("paper", "tests/faulttree/test_tree.py::test_extend_grafts_subtree",
                                      "the node lookup extend grafts through"),
    "faulttree.tree:FaultNode.find": ("paper", "tests/faulttree/test_tree.py::test_find",
                                      "the same lookup, per sub-tree"),
    "process.mining.cluster:similarity": ("paper", "tests/process/test_mining.py",
                                          "§III.A's string distance, as cluster_lines scores it"),
    # Test seams: a test puts a fake, or a bare part, where a run has the real one.
    "sim.latency:ConstantLatency.__init__": ("seam", "tests/assertions/test_consistent_api.py",
                                             "a latency with no spread"),
    "sim.latency:ConstantLatency.sample": ("seam", "tests/assertions/test_consistent_api.py",
                                           "the same"),
    "sim.latency:ConstantLatency.percentile": ("seam", "tests/assertions/test_consistent_api.py",
                                               "what the client's timeout rule reads of a fake"),
    "sim.latency:UniformLatency.__init__": ("seam", "tests/sim/test_latency.py", "bounded jitter"),
    "sim.latency:UniformLatency.sample": ("seam", "tests/sim/test_latency.py", "the same"),
    "sim.latency:UniformLatency.percentile": ("seam", "tests/sim/test_latency.py",
                                              "what the timeout rule reads of a"
                                              " bounded-jitter fake"),
    "sim.engine:Engine.run": ("seam", "tests/sim/test_engine.py",
                              "a bare engine run to a process's end or to an empty queue, in"
                              " place of the testbed's bounded loop"),
    "diagnosis.tests:CustomTestRegistry.names": ("seam", "tests/diagnosis/test_probes.py",
                                                 "checks registry and trees name the same probes"),
    "operations.interference:InterferencePlan.any": (
        "seam", "tests/evaluation/test_campaign.py",
        "counts the specs with and without interference"),
    "logsys.record:LogEntry.tag_value": (
        "seam", "tests/pod/test_stored_verdicts.py",
        "a stored verdict answers a storage reader's tag lookup as a LogRecord would; only"
        " tests read storage by tag prefix"),
}


# -- the runner (a fresh interpreter) ---------------------------------------------


def _capture(run) -> dict:
    """Run one entry point: what it raised, whether it printed, how long."""
    out = io.StringIO()
    started = time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run()
    except (Exception, SystemExit):  # report it and go on to the next entry point
        error = traceback.format_exc().strip().splitlines()[-1]
    return {
        "error": error,
        "printed": bool(out.getvalue().strip()),
        "seconds": round(time.perf_counter() - started, 3),
    }


def run_entry_points(out: pathlib.Path) -> dict:
    """Every entry point under the hook: ``{"lines", "calls", "entry_points"}``,
    ``lines`` / ``calls`` as path under the package -> sorted line numbers."""
    assert "repro" not in sys.modules, "the hook must be on before repro is imported"
    package = os.path.realpath(importlib.util.find_spec("repro").submodule_search_locations[0])
    lines: dict[str, set[int]] = collections.defaultdict(set)
    calls: dict[str, set[int]] = collections.defaultdict(set)

    def hook(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        calls[code.co_filename].add(code.co_firstlineno)
        ran = lines[code.co_filename]

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        return line

    sys.settrace(hook)
    try:
        from repro.cli import main

        results = {
            name: _capture(lambda argv=argv: main([a.format(out=out) for a in argv]))
            for name, argv in COMMANDS.items()
        }
        for path in EXAMPLES:
            sys.argv = [str(path)]  # the example's own defaults
            results[path.stem] = _capture(
                lambda path=path: runpy.run_path(str(path), run_name="__main__")
            )
    finally:
        sys.settrace(None)

    def relative(found: dict[str, set[int]]) -> dict[str, list[int]]:
        return {
            os.path.relpath(file, package).replace(os.sep, "/"): sorted(numbers)
            for file, numbers in sorted(found.items())
        }

    return {"lines": relative(lines), "calls": relative(calls), "entry_points": results}


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    (target / "reach.json").write_text(json.dumps(run_entry_points(target)))
    sys.exit(0)


# -- the rung -----------------------------------------------------------------------

import pytest  # noqa: E402  (the runner above needs only the stdlib)

from tests.test_public_surface import JUSTIFIED  # noqa: E402

#: Statements that compile to no instruction, so no line event can mark them.
_SILENT = (ast.Global, ast.Nonlocal)


def _exempt(function: ast.FunctionDef) -> bool:
    """A property, ``__repr__`` / ``__str__``, a ``JUSTIFIED`` name, or a
    body that only raises (an abstract body is one)."""
    names = {getattr(d, "id", None) or getattr(d, "attr", None) for d in function.decorator_list}
    if names & {"property", "setter", "cached_property"}:
        return True
    if function.name in {"__repr__", "__str__"} or function.name in JUSTIFIED:
        return True
    return all(isinstance(statement, ast.Raise) for statement in _body(function))


def _body(function: ast.FunctionDef) -> list[ast.stmt]:
    return function.body[1:] if ast.get_docstring(function) is not None else function.body


def _blocks(statement: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists a compound statement holds, in source order."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # a nested definition is its own function (or class)
    blocks = [getattr(statement, "body", [])]
    blocks += [handler.body for handler in getattr(statement, "handlers", ())]
    blocks += [case.body for case in getattr(statement, "cases", ())]
    blocks += [getattr(statement, "orelse", []), getattr(statement, "finalbody", [])]
    return [block for block in blocks if block]


def _statements(block: list[ast.stmt]):
    """``(statement, exempt)`` in source order; a statement is exempt when
    its block only raises."""
    raising = all(isinstance(s, ast.Raise) for s in block)
    for statement in block:
        if isinstance(statement, _SILENT) or (
            isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
        ):
            continue
        yield statement, raising
        for inner in _blocks(statement):
            yield from _statements(inner)


class Function(typing.NamedTuple):
    path: str  # under the package
    node: ast.FunctionDef
    exempt: bool  # itself or a function it is nested in
    parent: str | None  # the key of the function it is nested in


def functions() -> dict[str, Function]:
    """Every function of ``src/repro``, keyed ``module:Qualname``."""
    found: dict[str, Function] = {}
    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        module = path[:-3].replace("/", ".").removesuffix(".__init__")

        def visit(node: ast.AST, prefix: str, parent: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{module}:{prefix}{child.name}"
                    exempt = _exempt(child) or (parent is not None and found[parent].exempt)
                    found[key] = Function(path, child, exempt, parent)
                    visit(child, f"{prefix}{child.name}.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(ast.parse(file.read_text()), "", None)
    return found


def statements(reach: dict) -> dict[str, tuple[Function, bool, list[tuple[int, bool]]]]:
    """``module:Qualname`` -> (the function, whether it ran at all, and each
    of its statements that is not exempt as ``(first line, ran)`` in
    source order), for every function that is not exempt.  A statement ran
    when any line it spans did."""
    lines = {path: set(numbers) for path, numbers in reach["lines"].items()}
    calls = {path: set(numbers) for path, numbers in reach["calls"].items()}
    found: dict[str, tuple[Function, bool, list[tuple[int, bool]]]] = {}
    for key, function in functions().items():
        if function.exempt:
            continue
        node = function.node
        starts = {node.lineno, *(d.lineno for d in node.decorator_list)}
        called = bool(starts & calls.get(function.path, set()))
        ran = lines.get(function.path, set()) if called else set()
        found[key] = (function, called, [
            (statement.lineno, bool(ran.intersection(range(statement.lineno, statement.end_lineno + 1))))
            for statement, raising in _statements(_body(node))
            if not raising
        ])
    return found


def unrun(reach: dict) -> int:
    """How many statements :func:`statements` finds never ran."""
    return sum(not ran for *_, found in statements(reach).values() for _, ran in found)


def needs_reason(reach: dict) -> dict[str, str]:
    """``module:Qualname`` -> why it needs an entry: it never ran (a function
    nested in one that never ran is covered by that one's entry), or where
    its first run of :data:`RUN` or more consecutive never-run statements
    ends."""
    never: set[str] = set()
    found: dict[str, str] = {}
    for key, (function, called, ran_by_line) in statements(reach).items():
        if not called:
            if function.parent not in never:
                found[key] = f"never ran ({function.path}:{function.node.lineno})"
            never.add(key)
            continue
        streak = 0
        for line, ran in ran_by_line:
            streak = 0 if ran else streak + 1
            if streak == RUN:
                found[key] = f"{function.path}:{line}: {RUN} statements in a row never ran"
                break
    return found


@pytest.fixture(scope="module")
def reach(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("reach")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    subprocess.run([sys.executable, __file__, str(out)], cwd=out, env=env, check=True, timeout=600)
    return json.loads((out / "reach.json").read_text())


@pytest.mark.parametrize("name", [*COMMANDS, *(path.stem for path in EXAMPLES)])
def test_entry_point_runs(reach, name):
    """An entry point that has stopped running is a caller that does not
    exist: an example once crashed for many releases and nothing noticed."""
    result = reach["entry_points"][name]
    assert result["error"] is None, f"{name} raised {result['error']}"
    assert result["printed"], f"{name} printed nothing"


def test_every_unrun_block_has_a_reason(reach):
    needed = needs_reason(reach)
    missing = sorted(set(needed) - set(RUN_ONLY_BY))
    assert not missing, (
        "no live entry point runs these; delete the block, call it, or give a reason:\n  "
        + "\n  ".join(f"{key}: {needed[key]}" for key in missing)
    )
    stale = sorted(set(RUN_ONLY_BY) - set(needed))
    assert not stale, (
        "stale entries (the function is gone or a live entry point now runs it):\n  "
        + "\n  ".join(stale)
    )


@pytest.mark.parametrize("key", sorted(RUN_ONLY_BY))
def test_reason_is_a_kind_and_names_a_file(key):
    kind, where, why = RUN_ONLY_BY[key]
    assert kind in KINDS, f"{key}: {kind!r} is not one of {sorted(KINDS)}"
    path, _, test = where.partition("::")
    assert (ROOT / path).is_file(), f"{key}: {path} does not exist"
    assert not test or f"def {test}(" in (ROOT / path).read_text(), f"{key}: no {test} in {path}"
    assert why, key
