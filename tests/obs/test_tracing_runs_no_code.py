"""Tracing changes no code that runs.

One spec runs untraced and traced under a ``sys.settrace`` line hook that
follows only ``src/repro`` frames.  Both runs must execute the same
lines, apart from ``repro/obs`` (with everything it calls: the export
reads the run) and ``_run_on``'s two export lines.  A component that
branches on whether the run is traced fails here by the lines it ran.
"""

import dataclasses
import inspect
import os
import pathlib
import sys

from repro.evaluation import campaign
from repro.evaluation.campaign import Campaign, CampaignConfig, run_single

PACKAGE = pathlib.Path(campaign.__file__).resolve().parents[1]
OBS = PACKAGE / "obs"

#: A small-cluster seed-2014 run whose severe + recover twin diagnoses,
#: recovers and resumes, so every stage a trace reads runs.
RUN_ID = "ami_changed-07"


def export_lines() -> set[tuple[str, int]]:
    """``_run_on``'s two export lines."""
    source, first = inspect.getsourcelines(campaign._run_on)
    found = {
        (campaign.__file__, first + offset)
        for offset, line in enumerate(source)
        if "Observability().export_" in line
    }
    assert len(found) == 2
    return found


def executed(spec) -> set[tuple[str, int]]:
    """The ``(file, line)`` pairs of ``src/repro`` a run of ``spec`` executes,
    outside ``repro/obs`` frames and what they call."""
    package, obs = f"{PACKAGE}{os.sep}", f"{OBS}{os.sep}"
    lines: set[tuple[str, int]] = set()
    depth = 0  # repro/obs frames on the stack

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def in_obs(frame, event, arg):
        nonlocal depth
        if event == "return":
            depth -= 1
        return in_obs

    def call(frame, event, arg):
        nonlocal depth
        if depth:
            return None
        filename = frame.f_code.co_filename
        if filename.startswith(obs):
            depth += 1
            return in_obs
        return line if filename.startswith(package) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run_single(spec)
    finally:
        sys.settrace(previous)
    return lines


def test_traced_run_executes_the_untraced_runs_lines():
    specs = Campaign(CampaignConfig(seed=2014, chaos_profile="severe", recover=True)).build_specs()
    spec = next(s for s in specs if s.run_id == RUN_ID)
    # Warm the process-wide shared copies (profile, trees, probes) first,
    # so neither measured run is the one that builds them.
    run_single(spec)
    untraced = executed(spec) - export_lines()
    traced = executed(dataclasses.replace(spec, trace=True)) - export_lines()
    files = {pathlib.Path(name).relative_to(PACKAGE).as_posix() for name, _ in untraced}
    assert {"recovery/engine.py", "diagnosis/engine.py", "process/conformance.py"} <= files
    assert not any(name.startswith("obs/") for name in files)
    only = sorted(traced ^ untraced)
    assert not only, "lines run by one side only: " + ", ".join(
        f"{'traced' if key in traced else 'untraced'} {pathlib.Path(key[0]).name}:{key[1]}"
        for key in only[:20]
    )
