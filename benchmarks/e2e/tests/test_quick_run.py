"""``run.py --quick`` end to end: the schema is exactly ``BENCHMARK.json``'s."""

import json
import pathlib
import subprocess
import sys

import pytest

E2E = pathlib.Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-quick")
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout
    return out, done.stdout


def test_results_hold_exactly_the_named_workloads_and_metrics(quick_run):
    out, _stdout = quick_run
    results = json.loads((out / "results.json").read_text())
    assert results["host"]["quick"] is True
    assert set(results["host"]) >= {"cpu_count", "python", "platform", "git_commit", "seed"}
    named = [m["name"] for m in SPEC["end_to_end"]] + [m["name"] for m in SPEC["per_layer"]]
    assert list(results["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, report in results["workloads"].items():
        assert list(report["metrics"]) == named, name          # none missing, none extra
        assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(report["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert report["failed"] == 0 and not report["digest_mismatches"]
        assert report["op_ms"]["n"] == sum(r["ops"] for r in report["rounds"])
        assert not report["warnings"]
        assert 0.95 <= report["traced"]["self_sum_over_wall"] <= 1.05
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for report in results["workloads"].values():
        assert {k: v["unit"] for k, v in report["metrics"].items()} == units


def test_stdout_names_every_metric_and_ends_with_one_result_line_per_workload(quick_run):
    _out, stdout = quick_run
    assert "quick: true" in stdout
    lines = stdout.strip().splitlines()
    tail = [json.loads(line) for line in lines[-len(SPEC["workloads"]):]]
    for result in tail:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"  {metric['name']} " in stdout


def test_trace_json_and_history_are_written(quick_run):
    out, _stdout = quick_run
    trace = json.loads((out / "trace.json").read_text())
    for name, traced in trace["workloads"].items():
        assert traced["spans"] and traced["summary"]["by_layer_self_ms"], name
        ids = {span["id"] for span in traced["spans"]}
        assert all(s["parent"] is None or s["parent"] in ids for s in traced["spans"])
    history = (out / "history.jsonl").read_text().strip().splitlines()
    assert len(history) == 1 and set(json.loads(history[0])["workloads"]) == set(trace["workloads"])


def test_layers_that_do_no_work_read_zero_on_ingest_replay(quick_run):
    out, _stdout = quick_run
    ingest = json.loads((out / "results.json").read_text())["workloads"]["ingest_replay"]["per_layer"]
    for layer in ("sim", "cloud", "assertions", "diagnosis", "recovery"):
        assert ingest[f"{layer}.self_ms_per_op"] == 0.0
    assert ingest["logsys.self_ms_per_op"] > 0 and ingest["process.checks_per_op"] > 0
