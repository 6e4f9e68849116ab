"""The audit's runtime rung: ``src/`` is what a live entry point runs.

``tests/test_public_surface.py`` finds names nothing *mentions* and
parameters nothing *passes*; it cannot see code that only its own tests
call.  This rung runs every live entry point — each CLI subcommand at a
small size (:data:`COMMANDS`) and every ``examples/*.py`` with its
defaults — in one fresh interpreter, with a ``sys.setprofile`` hook
installed *before* ``repro`` is imported (installed after, the functions a
class body calls at import time would look unreached), and records every
code object that ran.

A public function, or a public method of a public class, in
``src/repro`` that nothing reached fails, unless it is a ``@property``,
an abstract body (only ``raise NotImplementedError``), a name
``tests/test_public_surface.py``'s ``JUSTIFIED`` already answers for, or
an entry of :data:`REACHED_ONLY_BY` with its reason.  A stale entry (the
function went away or a live entry point now runs it) fails too.  An
entry point that raises or prints nothing fails by name.

By hand: ``PYTHONPATH=src python tests/test_reachability.py OUT_DIR``
writes ``OUT_DIR/reach.json``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: The CLI entry points, by test id; ``{out}`` is the run's output
#: directory.  The three campaign profiles (plain, severe chaos + recover,
#: traced) come in through ``campaign`` and ``trace-export``.
COMMANDS: dict[str, list[str]] = {
    "demo": ["demo"],
    "campaign": ["campaign", "--runs", "1"],
    "campaign-severe-recover": [
        "campaign", "--runs", "1", "--chaos", "severe", "--recover",
        "--json", "{out}/campaign.json", "--report", "{out}/report.md",
    ],
    "recover": ["recover", "--inject-at", "40", "--json", "{out}/recover.json"],
    "chaos-sweep": ["chaos-sweep", "--runs", "1", "--levels", "none,severe"],
    "trace-export": ["trace-export", "--json", "{out}/trace.json"],
    "mine": ["mine"],
    "mine-dot": ["mine", "--dot"],
    "trees": ["trees"],
    "trees-dot": ["trees", "--dot", "asg-instance-count"],
}

#: Public functions no live entry point runs, each with what does run it
#: and why it stays.  Keys are ``module:Qualname`` under ``repro``.
REACHED_ONLY_BY: dict[str, str] = {
    # Oracles: tests compare the product with these, or check a contract
    # through them.
    "process.model:PetriNet.fire": "the interpreted-replay oracle tests/process/reference_replay.py",
    "process.model:PetriNet.enabled": "the same oracle, through enabled_transitions",
    "sim.clock:SimClock.render": "the byte oracle tests/sim/test_render_oracle.py renders through"
                                 " the clock; a record's stamp is repro.sim.clock.render itself",
    "cloud.monitor:CloudMonitor.at": "the cloud state machine and tests/cloud/test_monitor_delta.py"
                                     " compare it with a full-copy reference crawler",
    "operations.profile:OperationProfile.validate": "the profile contract (model ≡ patterns ≡"
                                                    " bindings); tests/operations/test_rolling_upgrade.py",
    "logsys.patterns:PatternLibrary.activities": "what OperationProfile.validate checks the model"
                                                 " against; tests/operations/test_rolling_upgrade.py",
    # Paper names.
    "faulttree.builder:FaultTreeRegistry.extend": "the paper's account-limit amendment (§VI.A);"
                                                  " tests/faulttree/test_tree.py",
    "faulttree.tree:FaultTree.find": "the node lookup extend grafts through; tests read nodes by id",
    "faulttree.tree:FaultNode.find": "the same lookup, per sub-tree",
    "process.mining.cluster:similarity": "§III.A's string distance metric, as cluster_lines scores"
                                         " it; tests/process/test_mining.py",
    # The AWS surface a cloud simulator owes its callers.
    "cloud.api:CloudAPI.terminate_instance": "EC2 TerminateInstances; the ledger's boundary"
                                             " self-test and the cloud state machine call it",
    "cloud.api:CloudAPI.suspend_processes": "ASG SuspendProcesses; the cloud state machine drives it",
    "cloud.api:CloudAPI.resume_processes": "ASG ResumeProcesses; the cloud state machine drives it",
    "cloud.api:CloudAPI.delete_key_pair": "the undo of a recovery recreate (recovery.plan._RECREATES);"
                                          " tests/recovery/test_engine.py",
    "cloud.api:CloudAPI.delete_security_group": "the undo of a recovery recreate, as above",
    # Test seams.
    "sim.latency:ConstantLatency.sample": "test seam: a latency with no spread",
    "sim.latency:ConstantLatency.mean": "the client's timeout fallback for a model with no"
                                        " percentile, which only the test seams are",
    "sim.latency:UniformLatency.sample": "test seam: bounded jitter",
    "sim.latency:UniformLatency.mean": "the client's timeout fallback, as above",
    "sim.latency:LogNormalLatency.mean": "LatencyModel's analytic mean; tests/sim/test_latency.py",
    "cloud.chaos:ChaosLatency.mean": "reports the healthy base model's mean, as a LatencyModel must;"
                                     " tests/cloud/test_chaos.py",
    "cloud.limits:RateLimiter.in_flight": "test seam: tests/cloud/test_limits.py reads the sliding"
                                          " window through it",
    "diagnosis.tests:CustomTestRegistry.names": "test seam: tests/diagnosis/test_probes.py checks"
                                                " registry ≡ trees both ways",
    "operations.interference:InterferencePlan.any": "test seam: tests/evaluation/test_campaign.py"
                                                    " counts runs with and without interference",
    # The pool: no entry point here starts one (--workers 1, and a 1-core
    # host clamps any other value to the serial loop).
    "evaluation.parallel:warm_worker": "pool initializer; the ledger also calls it",
    "evaluation.parallel:execute_chunk": "the unit a pool child runs",
    "evaluation.parallel:specs_per_chunk": "chunk sizing of a pool campaign",
    "evaluation.campaign:RunOutcome.failure": "crash isolation: a run that raises becomes a failed"
                                              " outcome; tests/evaluation/test_parallel_campaign.py",
    # The frozen-view contract: the explicit opt-out from sharing.
    "cloud.freeze:thaw": "the frozen-view contract's mutable copy; tests/cloud/test_freeze.py",
    "cloud.freeze:FrozenView.thaw": "the same, as a method",
    "cloud.freeze:FrozenList.thaw": "the same, as a method",
    # The ledger's ingest_replay parses its corpus through these.
    "logsys.ingest:read_log": "the ledger's ingest_replay corpus; tests/logsys/test_ingest.py",
    "logsys.ingest:parse_line": "read_log's per-line half",
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
    """Every entry point under the hook: ``{"reached", "entry_points"}``,
    ``reached`` as ``(path under the package, first line)`` pairs."""
    assert "repro" not in sys.modules, "the hook must be on before repro is imported"
    reached: set = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(hook)
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
        sys.setprofile(None)
    import repro

    package = pathlib.Path(repro.__file__).resolve().parent
    lines = set()
    for code in reached:
        path = pathlib.Path(code.co_filename)
        if path.is_absolute() and package in path.parents:
            lines.add((path.relative_to(package).as_posix(), code.co_firstlineno))
    return {"reached": sorted(lines), "entry_points": results}


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    (target / "reach.json").write_text(json.dumps(run_entry_points(target), indent=1))
    sys.exit(0)


# -- the rung -----------------------------------------------------------------------

import pytest  # noqa: E402  (the runner above needs only the stdlib)

from tests.test_public_surface import JUSTIFIED  # noqa: E402


def _exempt(function: ast.FunctionDef) -> bool:
    """A property, or an abstract body (only ``raise NotImplementedError``)."""
    names = {getattr(d, "id", None) or getattr(d, "attr", None) for d in function.decorator_list}
    if names & {"property", "setter", "cached_property"}:
        return True
    body = function.body[1:] if ast.get_docstring(function) is not None else function.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def public_functions() -> dict[str, tuple[str, set[int]]]:
    """``module:Qualname`` -> (path under the package, the lines its code
    object may start on: the ``def`` or its first decorator)."""
    found: dict[str, tuple[str, set[int]]] = {}
    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(PACKAGE).as_posix()
        module = path[:-3].replace("/", ".").removesuffix(".__init__")
        candidates = []
        for node in ast.parse(file.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                candidates.append((node.name, node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                candidates += [
                    (f"{node.name}.{member.name}", member)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                ]
        for qualname, function in candidates:
            if function.name.startswith("_") or function.name in JUSTIFIED or _exempt(function):
                continue
            lines = {function.lineno, *(d.lineno for d in function.decorator_list)}
            found[f"{module}:{qualname}"] = (path, lines)
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


def test_every_public_function_is_reached_or_has_a_reason(reach):
    reached = {tuple(line) for line in reach["reached"]}
    unreached = {
        name
        for name, (path, lines) in public_functions().items()
        if not any((path, line) in reached for line in lines)
    }
    missing = sorted(unreached - set(REACHED_ONLY_BY))
    assert not missing, (
        "no live entry point runs these; delete them, call them, or give a reason:\n  "
        + "\n  ".join(missing)
    )
    stale = sorted(set(REACHED_ONLY_BY) - unreached)
    assert not stale, (
        "stale entries (the function is gone or a live entry point now runs it):\n  "
        + "\n  ".join(stale)
    )
