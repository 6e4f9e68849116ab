#!/usr/bin/env python3
"""Which outcome fields a change moves: the JSON paths whose values differ.

    python3 tools/outcome_diff.py PARENT_DIR CHANGE_DIR [--seed S]

Runs four of the seed's campaigns in each checkout's own interpreter
(``PYTHONPATH=CHECKOUT/src``), one after the other: the paper, traced and
severe-chaos + recover campaigns the performance ledger runs, and the
traced severe-chaos + recover campaign, the only one whose metrics hold
``recovery.*`` and the client's retry counters.  It compares the two
sides outcome by outcome.  Every JSON path of ``dataclasses.asdict(outcome)``
whose value differs is printed once, with list indices collapsed to
``*`` and the number of places it differed, e.g.::

     480  api_health/cloud.snapshot.shared

A path present on one side only counts as differing.  ``bench_pairs.py``
can only say "digests differ"; this says where, so a change that declares
a digest move can show that nothing else moved.

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


def differing(parent: dict, change: dict) -> collections.Counter:
    """Collapsed path -> how many concrete paths under it differ."""
    ours, theirs = leaves(parent), leaves(change)
    return collections.Counter(
        collapse(path)
        for path in ours.keys() | theirs.keys()
        if ours.get(path, MISSING) != theirs.get(path, MISSING)
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=2014)
    args = parser.parse_args(argv)
    checkouts = args.parent.resolve(), args.change.resolve()

    counts: collections.Counter = collections.Counter()
    with tempfile.TemporaryDirectory(prefix="outcome-diff-") as scratch:
        for name, flags in CAMPAIGNS.items():
            parent, change = (
                run_campaign(checkout, args.seed, flags, pathlib.Path(scratch) / f"{side}.jsonl")
                for side, checkout in zip(("parent", "change"), checkouts)
            )
            print(f"seed {args.seed} {name}: {len(parent)} | {len(change)} runs", flush=True)
            if len(parent) != len(change):
                counts["(run count)"] += 1
            for ours, theirs in zip(parent, change):
                counts.update(differing(json.loads(ours), json.loads(theirs)))
    for path, count in sorted(counts.items()):
        print(f"{count:6d}  {path}")
    print(f"{len(counts)} path(s) differ")
    return 1 if counts else 0


if __name__ == "__main__":
    sys.exit(main())
