"""A finished run frees itself (DESIGN §8 "Run lifecycle").

``run_single`` closes its testbed in a ``finally``: POD's callback wiring
is cut, the engine closes every suspended process, and the whole run
dies by reference count when the function returns.  The witness is the
cyclic collector finding *nothing* after a run made with collection off —
so the next back-reference someone adds (a callback to an owner, a span
to its tracer, an exception kept in its own frame) fails here, with the
types it stranded, instead of silently costing a campaign a quarter of
its memory and a seventh of its time.

The same specs pin the outcomes recorded at ``4f86396`` (the commit
before teardown existed): closing a run changes nothing it reports.
"""

import collections
import dataclasses
import gc
import hashlib
import json
import weakref

import pytest

from repro.evaluation import campaign as campaign_module
from repro.evaluation.campaign import Campaign, CampaignConfig
from repro.evaluation.parallel import execute_run
from repro.testbed import Testbed

#: The three campaign flag sets the performance ledger runs.
FLAG_SETS = {
    "paper": {},
    "traced": {"trace": True},
    "degraded": {"chaos_profile": "severe", "recover": True},
}

#: Seed-2014 campaign runs: 4 and 20 instances, one upgrade that completes
#: and one that stalls to ``failed`` (and, under ``recover``, is healed and
#: resumed on a second log stream).
RUNS = {
    "completes-4": "ami_changed-11",
    "completes-20": "ami_changed-01",
    "stalls-4": "keypair_unavailable-11",
    "stalls-20": "keypair_unavailable-01",
}

#: sha256 (first 16 hex) of each outcome's canonical JSON, recorded at 4f86396;
#: the four ``degraded`` ones again when the recovery record gained
#: ``escalation_reason`` (with that key dropped they are the old values);
#: all twelve again when the region-wide snapshot intern pool went, and
#: with it ``cloud.snapshot.shared`` / ``cloud.snapshot.copied`` from
#: ``api_health`` and, traced, from ``metrics["counters"]`` (with those
#: four paths dropped from 57f10d3's outcomes, they hash to these values);
#: the four ``traced`` ones again when the metrics became read at export
#: and ``classify.memo.hits`` / ``.misses`` were retired (with those two
#: counters dropped, e008f82's traced outcomes hash to these values); the
#: three ``completes-4`` ones again at 693f399, when a late fault began to
#: fire on the upgrade's completion line: ``ami_changed-11`` is due after
#: its upgrade ends, and 68e0dfe's outcomes are of its rerun at
#: ``inject_at / 3``.
RECORDED = {
    ("paper", "completes-4"): "7051693f15bf32ea",
    ("paper", "completes-20"): "a39e099142d20cdf",
    ("paper", "stalls-4"): "610ea7cb5682285b",
    ("paper", "stalls-20"): "7a3c1b9443c7a285",
    ("traced", "completes-4"): "b6b0c8cf35c12d3f",
    ("traced", "completes-20"): "b1652e5854d8f2c1",
    ("traced", "stalls-4"): "4e1925fbb9674583",
    ("traced", "stalls-20"): "9b6066519410f06b",
    ("degraded", "completes-4"): "9d32d840142f2ecd",
    ("degraded", "completes-20"): "d40e64e9f74bfb3a",
    ("degraded", "stalls-4"): "7a06c3ccc98f3231",
    ("degraded", "stalls-20"): "81f40133c4edccba",
}

CASES = sorted(RECORDED)


def spec_for(flags: str, run: str):
    specs = Campaign(CampaignConfig(seed=2014, **FLAG_SETS[flags])).build_specs()
    return next(spec for spec in specs if spec.run_id == RUNS[run])


def outcome_digest(outcome) -> str:
    text = json.dumps(dataclasses.asdict(outcome), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stranded_by(action):
    """Run ``action`` with the collector off; return its result and a type
    histogram of what only the collector could have freed afterwards."""
    gc.collect()
    gc.disable()
    try:
        result = action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        stranded = collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return result, stranded


def describe(stranded: collections.Counter) -> str:
    return (
        f"the run left {sum(stranded.values())} objects for the cyclic collector: "
        f"{stranded.most_common(15)} — something references its owner; cut it in close()"
    )


@pytest.mark.parametrize(("flags", "run"), CASES)
def test_finished_run_leaves_nothing_to_collect(flags, run):
    spec = spec_for(flags, run)
    # Once before measuring: first-use caches and lazy imports allocate
    # cycles of their own that belong to the process, not to the run.
    execute_run(spec)
    outcome, stranded = stranded_by(lambda: execute_run(spec))
    assert not outcome.failed, outcome.error
    assert outcome.operation_status == ("completed" if run.startswith("completes") else "failed")
    assert not stranded, describe(stranded)
    assert outcome_digest(outcome) == RECORDED[flags, run], "teardown changed what the run reports"


@pytest.mark.parametrize("cluster_size", [4, 20])
@pytest.mark.parametrize("flags", sorted(FLAG_SETS))
def test_run_that_raises_mid_upgrade_is_still_closed(flags, cluster_size, monkeypatch):
    """The structured-failure path: ``run_single``'s ``finally`` runs under
    the exception ``execute_run`` turns into a failure record."""
    closed = []
    original_close = Testbed.close

    def exploding_run_upgrade(self, trace_id="upgrade-1", horizon=5400.0, settle=60.0):
        self.start_upgrade(trace_id)
        self.engine.run(until=self.engine.now + 150.0)
        raise RuntimeError("boom mid-upgrade")

    def recording_close(self):
        closed.append(self.engine.now)
        original_close(self)

    monkeypatch.setattr(Testbed, "run_upgrade", exploding_run_upgrade)
    monkeypatch.setattr(Testbed, "close", recording_close)
    run = "completes-4" if cluster_size == 4 else "completes-20"
    spec = spec_for(flags, run)
    execute_run(spec)
    closed.clear()

    outcome, stranded = stranded_by(lambda: execute_run(spec))
    assert outcome.failed and "boom mid-upgrade" in outcome.error
    assert outcome.operation_status == "crashed"
    assert closed == [450.0], "the testbed of a crashed run is closed, once, where it stopped"
    assert not stranded, describe(stranded)


def test_close_twice_is_a_noop():
    testbed = Testbed(cluster_size=4, seed=5)
    operation = testbed.run_upgrade()
    reports = list(testbed.pod.reports)
    records = len(testbed.pod.storage)
    testbed.close()
    testbed.close()
    testbed.pod.close()
    testbed.engine.close()
    # What the run recorded stays readable; the run itself is over.
    assert operation.status == "completed"
    assert testbed.pod.reports == reports and len(testbed.pod.storage) == records
    assert testbed.cloud.state.instances
    with pytest.raises(RuntimeError, match="engine closed"):
        testbed.engine.run(until=testbed.engine.now + 1.0)


def test_closed_pod_hears_nothing():
    testbed = Testbed(cluster_size=4, seed=5)
    testbed.start_upgrade()
    testbed.engine.run(until=testbed.engine.now + 120.0)
    pod = testbed.pod
    checks = len(pod.conformance.results)
    assert checks > 0 and pod.timers.active
    pod.close()
    assert not pod.timers.active and not pod.processors
    testbed.engine.run(until=testbed.engine.now + 600.0)  # the upgrade itself carries on
    assert len(testbed.stream) > checks
    assert len(pod.conformance.results) == checks
    assert pod.conformance.on_error is None and pod.assertions.on_failure is None
    testbed.close()


def test_unclosed_testbed_still_works_and_is_collectable():
    """Examples and tests that build a ``Testbed`` and never close it are
    untouched: the run works, and the collector still frees it."""
    gc.collect()
    testbed = Testbed(cluster_size=4, seed=5)
    assert testbed.run_upgrade().status == "completed"
    assert testbed.pod.conformance.results
    alive = weakref.ref(testbed)
    engine = weakref.ref(testbed.engine)
    del testbed
    gc.collect()
    assert alive() is None and engine() is None
    assert not gc.garbage


def test_run_single_closes_after_the_outcome_is_built(monkeypatch):
    """Everything the outcome reads (trace export, metrics, API health, the
    recovery record) is read before teardown, never after."""
    order = []
    original_close = Testbed.close
    original_run_on = campaign_module._run_on

    def recording_run_on(testbed, spec):
        outcome = original_run_on(testbed, spec)
        order.append("outcome")
        return outcome

    def recording_close(self):
        order.append("close")
        original_close(self)

    monkeypatch.setattr(campaign_module, "_run_on", recording_run_on)
    monkeypatch.setattr(Testbed, "close", recording_close)
    outcome = campaign_module.run_single(spec_for("degraded", "stalls-4"))
    assert order == ["outcome", "close"]
    assert outcome.recovery["status"] == "RECOVERED" and outcome.recovery["resumed"]
