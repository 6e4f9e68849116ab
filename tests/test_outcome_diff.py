"""``tools/outcome_diff.py`` on stub checkouts.

Each stub is a directory whose ``src/repro/evaluation`` serves scripted
outcomes through the ``Campaign`` / ``CampaignConfig`` names the tool
imports, so the tool's own work is what runs: one interpreter per
checkout and campaign, the path walk, the collapsing and the exit code.
"""

import importlib.util
import json
import pathlib
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("outcome_diff", ROOT / "tools" / "outcome_diff.py")
outcome_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(outcome_diff)

STUB_EVALUATION = textwrap.dedent('''
    """Serves scripted.json: flags (canonical JSON) -> outcome fields."""
    import dataclasses, json, pathlib, sys, time

    here = pathlib.Path(__file__).resolve().parent


    @dataclasses.dataclass
    class Outcome:
        spec: dict
        api_health: dict
        trace: list


    class CampaignConfig:
        def __init__(self, seed, **flags):
            self.seed, self.flags = seed, flags


    class Campaign:
        def __init__(self, config):
            self.config = config

        def run(self, max_workers=None):
            key = json.dumps(self.config.flags, sort_keys=True)
            with open(here / "calls.jsonl", "a") as log:
                log.write(json.dumps({
                    "at": time.monotonic_ns(), "seed": self.config.seed, "flags": key,
                    "workers": max_workers, "path": sys.path[:3],
                }) + "\\n")
            script = json.loads((here / "scripted.json").read_text())
            if script.get("crash"):
                raise RuntimeError("boom")
            return [Outcome(**fields) for fields in script.get(key, script["default"])]
''')


def checkout(path: pathlib.Path, script: dict) -> pathlib.Path:
    package = path / "src" / "repro" / "evaluation"
    package.mkdir(parents=True)
    (package.parent / "__init__.py").write_text("")
    (package / "__init__.py").write_text(STUB_EVALUATION)
    (package / "scripted.json").write_text(json.dumps(script))
    return path


def calls(path: pathlib.Path) -> list[dict]:
    log = path / "src" / "repro" / "evaluation" / "calls.jsonl"
    return [json.loads(line) for line in log.read_text().splitlines()]


def span(span_id: int, parent_id: int | None, name: str, start: float, end: float) -> dict:
    """One span as ``dataclasses.asdict(outcome)`` writes it."""
    return {
        "span_id": span_id, "parent_id": parent_id, "name": name, "stage": "s",
        "start": start, "end": end, "attrs": {"k": [1]},
    }


def outcome(run_id: str, shared: int | None = 3, ms: tuple = (1, 2)) -> dict:
    health = {"calls": 5} if shared is None else {"calls": 5, "cloud.snapshot.shared": shared}
    return {
        "spec": {"run_id": run_id},
        "api_health": health,
        "trace": [span(i + 1, None, f"span-{i}", 0.0, value) for i, value in enumerate(ms)],
    }


RUNS = [outcome("r1"), outcome("r2")]


def tables(out: str) -> dict[str, dict[str, int]]:
    """campaign -> (path -> count), off the printed lines: each campaign's
    rows follow its ``seed S name: ...`` line."""
    found: dict[str, dict[str, int]] = {}
    for line in out.splitlines():
        if line.startswith("seed "):
            rows = found[line.split(":")[0].split(" ", 2)[2]] = {}
        elif line.startswith(" "):
            count, path = line.split(None, 1)
            rows[path] = int(count)
    return found


#: What ``tables`` reads when no campaign differs anywhere.
NONE_MOVED = {name: {} for name in outcome_diff.CAMPAIGNS}


def test_identical_checkouts_differ_nowhere(tmp_path, capsys):
    parent = checkout(tmp_path / "a", {"default": RUNS})
    change = checkout(tmp_path / "b", {"default": RUNS})
    assert outcome_diff.main([str(parent), str(change), "--seed", "31"]) == 0
    out = capsys.readouterr().out
    assert "0 path(s) differ" in out and tables(out) == NONE_MOVED
    for name in outcome_diff.CAMPAIGNS:
        assert f"seed 31 {name}: 2 | 2 runs, 0 differ:\n" in out


def test_each_checkout_runs_every_campaign_in_its_own_interpreter(tmp_path, capsys):
    parent = checkout(tmp_path / "a", {"default": RUNS})
    change = checkout(tmp_path / "b", {"default": RUNS})
    outcome_diff.main([str(parent), str(change)])
    a, b = calls(parent), calls(change)
    flag_sets = [json.dumps(flags, sort_keys=True) for flags in outcome_diff.CAMPAIGNS.values()]
    for side, log in ((parent, a), (change, b)):
        assert [call["flags"] for call in log] == flag_sets
        assert {call["seed"] for call in log} == {2014}
        assert {call["workers"] for call in log} == {1}
        assert all(str(side.resolve() / "src") in call["path"] for call in log)
    # One campaign at a time: the parent's, then the change's.
    assert len(a) == len(b) == 4
    assert [x["at"] < y["at"] for x, y in zip(a, b)] == [True] * 4
    assert all(y["at"] < x["at"] for x, y in zip(a[1:], b))


def test_moved_paths_are_listed_collapsed_with_counts(tmp_path, capsys):
    parent = checkout(tmp_path / "a", {"default": RUNS})
    change = checkout(tmp_path / "b", {
        "default": [outcome("r1", shared=None), outcome("r2", shared=None, ms=(1, 5))],
    })
    assert outcome_diff.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    # Two runs in each of four campaigns; the second span's end moved in one run.
    moved = {"api_health/cloud.snapshot.shared": 2, "trace/s:span-1": 1}
    assert tables(out) == {name: moved for name in outcome_diff.CAMPAIGNS}
    assert "2 path(s) differ" in out


def test_a_move_in_one_campaign_is_that_campaigns_alone(tmp_path, capsys):
    severe = json.dumps({"chaos_profile": "severe", "recover": True}, sort_keys=True)
    parent = checkout(tmp_path / "a", {"default": RUNS})
    change = checkout(tmp_path / "b", {"default": RUNS, severe: [outcome("r1", shared=4), RUNS[1]]})
    assert outcome_diff.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert tables(out) == {**NONE_MOVED, "severe+recover": {"api_health/cloud.snapshot.shared": 1}}
    assert "seed 2014 severe+recover: 2 | 2 runs, 1 differ: r1\n" in out
    assert out.endswith("1 path(s) differ\n")


def test_one_campaign_differing_is_enough(tmp_path, capsys):
    traced = json.dumps({"trace": True}, sort_keys=True)
    parent = checkout(tmp_path / "a", {"default": RUNS})
    change = checkout(tmp_path / "b", {"default": RUNS, traced: [RUNS[0]]})
    assert outcome_diff.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "seed 2014 traced: 2 | 1 runs, 0 differ:\n" in out
    assert tables(out) == {**NONE_MOVED, "traced": {"(run count)": 1}}


def test_each_campaign_names_the_runs_that_differ(tmp_path, capsys):
    traced = json.dumps({"trace": True}, sort_keys=True)
    runs = [outcome("r1"), outcome("r2"), outcome("r3")]
    moved = [outcome("r1", shared=4), outcome("r2"), outcome("r3", ms=(1, 5))]
    parent = checkout(tmp_path / "a", {"default": runs})
    change = checkout(tmp_path / "b", {"default": runs, traced: moved})
    assert outcome_diff.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("seed ")] == [
        "seed 2014 paper: 3 | 3 runs, 0 differ:",
        "seed 2014 traced: 3 | 3 runs, 2 differ: r1 r3",
        "seed 2014 severe+recover: 3 | 3 runs, 0 differ:",
        "seed 2014 traced severe+recover: 3 | 3 runs, 0 differ:",
    ]


def test_a_crashed_campaign_stops_the_tool(tmp_path):
    parent = checkout(tmp_path / "a", {"default": RUNS})
    change = checkout(tmp_path / "b", {"default": RUNS, "crash": True})
    with pytest.raises(SystemExit, match="exited with code 1"):
        outcome_diff.main([str(parent), str(change)])


@pytest.mark.parametrize(
    ("parent", "change", "moved"),
    [
        ({"a": {}, "b": 1}, {"b": 1}, {"a": 1}),  # an empty dict is a value of its own
        ({"a": []}, {"a": [1]}, {"a": 1, "a/*": 1}),
        ({"a": {"b": 1}}, {"a": 1}, {"a": 1, "a/b": 1}),  # a type change
        ({"a": [1, 2, 3]}, {"a": [1, 0, 0]}, {"a/*": 2}),
        ({"a": "x"}, {"a": "x"}, {}),
    ],
)
def test_differing_walks_every_leaf(parent, change, moved):
    assert dict(outcome_diff.differing(parent, change)) == moved


def test_traces_differing_only_in_ids_and_order_do_not_differ():
    parent = [span(1, None, "walk", 0.0, 3.0), span(2, 1, "test", 1.0, 2.0),
              span(3, 1, "test", 2.0, 3.0)]
    change = [span(9, 7, "test", 2.0, 3.0), span(7, None, "walk", 0.0, 3.0),
              span(4, 7, "test", 1.0, 2.0)]
    assert outcome_diff.differing({"trace": parent}, {"trace": change}) == {}


def test_a_span_under_another_parent_is_one_path():
    parent = [span(1, None, "walk", 0.0, 3.0), span(2, None, "walk", 4.0, 5.0),
              span(3, 1, "test", 1.0, 2.0)]
    change = [span(1, None, "walk", 0.0, 3.0), span(2, None, "walk", 4.0, 5.0),
              span(3, 2, "test", 1.0, 2.0)]
    assert outcome_diff.differing({"trace": parent}, {"trace": change}) == {
        "trace/s:walk/s:test": 1
    }
    # A moved root is gone from one path and new at another.
    orphan = [span(1, None, "walk", 0.0, 3.0), span(2, None, "walk", 4.0, 5.0),
              span(3, None, "test", 1.0, 2.0)]
    assert outcome_diff.differing({"trace": orphan}, {"trace": change}) == {
        "trace/s:test": 1, "trace/s:walk/s:test": 1
    }
