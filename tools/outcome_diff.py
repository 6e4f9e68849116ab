#!/usr/bin/env python3
"""Which outcome fields a change moves: the JSON paths whose values differ.

    python3 tools/outcome_diff.py PARENT_DIR CHANGE_DIR [--seed S]

Runs four of the seed's campaigns in each checkout's own interpreter
(``PYTHONPATH=CHECKOUT/src``), one after the other: the paper, traced and
severe-chaos + recover campaigns the performance ledger runs, and the
traced severe-chaos + recover campaign, the only one whose metrics hold
``recovery.*`` and the client's retry counters.  It compares the two
sides outcome by outcome.  Every JSON path of ``dataclasses.asdict(outcome)``
whose value differs is printed once per campaign, with list indices
collapsed to ``*`` and the number of places it differed in that
campaign, e.g.::

     160  api_health/cloud.snapshot.shared

A path present on one side only counts as differing.  ``trace`` is
compared by shape, not by encoding: each span is keyed by its path of
``(stage, name, start, end, attrs)`` from its root, so span ids and the
order of siblings do not count.  A span found on one side only prints as
``trace/`` and the ``stage:name`` chain from its root; under one chain, a
span that changed (gone from one path, new at another) counts once::

       2  trace/recovery:execute/recovery:restore-launch-configuration

Each campaign's table follows a line that names the runs (``spec.run_id``,
paired in spec order) whose outcomes differ::

    seed 2014 paper: 160 | 160 runs, 2 differ: ami_changed-10 sg_wrong-01

so a move confined to one campaign reads as that campaign's alone.  The
last line counts the distinct paths that differ in any campaign.

``bench_pairs.py`` can only say "digests differ"; this says where and in
which runs, so a change that declares a digest move can show, run by run,
that nothing else moved.

Exits 0 only when no path differs.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys
import tempfile

#: The ledger's three campaign flag sets, then the traced severe + recover one.
CAMPAIGNS = {
    "paper": {},
    "traced": {"trace": True},
    "severe+recover": {"chaos_profile": "severe", "recover": True},
    "traced severe+recover": {"chaos_profile": "severe", "recover": True, "trace": True},
}

#: Run inside a checkout: one campaign's outcomes, one canonical JSON line each.
CHILD = """
import dataclasses, json, sys
from repro.evaluation import Campaign, CampaignConfig
seed, flags, out = int(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
outcomes = Campaign(CampaignConfig(seed=seed, **flags)).run(max_workers=1)
with open(out, "w") as handle:
    for outcome in outcomes:
        handle.write(json.dumps(dataclasses.asdict(outcome), sort_keys=True, default=str) + "\\n")
"""

MISSING = object()


def run_campaign(checkout: pathlib.Path, seed: int, flags: dict, out: pathlib.Path) -> list[str]:
    """One campaign in ``checkout``'s own interpreter: its outcome JSON lines."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    command = [sys.executable, "-c", CHILD, str(seed), json.dumps(flags), str(out)]
    done = subprocess.run(command, cwd=checkout, env=env)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: campaign {flags} exited with code {done.returncode}")
    return out.read_text().splitlines()


def leaves(value, path: tuple = ()) -> dict[tuple, object]:
    """Concrete path -> leaf; an empty container is a leaf of its own."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return {path: value}
    found = {}
    for key, item in items:
        found.update(leaves(item, (*path, key)))
    return found


def collapse(path: tuple) -> str:
    return "/".join("*" if isinstance(step, int) else step for step in path)


def span_paths(spans: list[dict]) -> collections.Counter:
    """The trace as an id-free forest: each span's path of ``(stage, name,
    start, end, attrs)`` from its root, with how many spans share it."""
    by_id = {span["span_id"]: span for span in spans}
    paths: collections.Counter = collections.Counter()
    for span in spans:
        path = []
        while span is not None:
            attrs = json.dumps(span["attrs"], sort_keys=True)
            path.append((span["stage"], span["name"], span["start"], span["end"], attrs))
            span = by_id.get(span["parent_id"])
        paths[tuple(reversed(path))] += 1
    return paths


def differing_spans(parent: list[dict], change: list[dict]) -> collections.Counter:
    """``trace/stage:name/...`` -> how many spans under it are on one side only."""
    ours, theirs = span_paths(parent), span_paths(change)

    def by_label(paths: collections.Counter) -> collections.Counter:
        labels: collections.Counter = collections.Counter()
        for path, count in paths.items():
            labels["/".join(["trace", *(f"{stage}:{name}" for stage, name, *_ in path)])] += count
        return labels

    # Under one label, a span that changed is gone from one path and new at
    # another: the larger side counts it once.
    return by_label(ours - theirs) | by_label(theirs - ours)


def differing(parent: dict, change: dict) -> collections.Counter:
    """Collapsed path -> how many concrete paths (or spans) under it differ."""
    moved: collections.Counter = collections.Counter()
    traces = parent.get("trace"), change.get("trace")
    if all(isinstance(trace, list) for trace in traces):
        moved.update(differing_spans(*traces))
        parent, change = (
            {key: value for key, value in side.items() if key != "trace"}
            for side in (parent, change)
        )
    ours, theirs = leaves(parent), leaves(change)
    moved.update(
        collapse(path)
        for path in ours.keys() | theirs.keys()
        if ours.get(path, MISSING) != theirs.get(path, MISSING)
    )
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args(argv)
    checkouts = args.parent.resolve(), args.change.resolve()

    moved_paths: set[str] = set()
    with tempfile.TemporaryDirectory(prefix="outcome-diff-") as scratch:
        for name, flags in CAMPAIGNS.items():
            parent, change = (
                run_campaign(checkout, args.seed, flags, pathlib.Path(scratch) / f"{side}.jsonl")
                for side, checkout in zip(("parent", "change"), checkouts)
            )
            counts: collections.Counter = collections.Counter()
            if len(parent) != len(change):
                counts["(run count)"] += 1
            moved = []
            for ours, theirs in zip(parent, change):
                ours = json.loads(ours)
                paths = differing(ours, json.loads(theirs))
                if paths:
                    moved.append(ours["spec"]["run_id"])
                    counts.update(paths)
            print(
                f"seed {args.seed} {name}: {len(parent)} | {len(change)} runs,"
                f" {len(moved)} differ:{''.join(f' {run_id}' for run_id in moved)}",
                flush=True,
            )
            for path, count in sorted(counts.items()):
                print(f"{count:6d}  {path}", flush=True)
            moved_paths.update(counts)
    print(f"{len(moved_paths)} path(s) differ")
    return 1 if moved_paths else 0


if __name__ == "__main__":
    sys.exit(main())
