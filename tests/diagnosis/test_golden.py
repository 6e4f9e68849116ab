"""Golden record of what diagnosis writes, traces and counts.

The first seed-2014 paper-campaign run of each fault type, run traced,
pinned as SHA-256 digests of three things:

- ``log`` — the ``(time, message)`` list of the run's ``diagnosis.log``
  (``storage.query(type="diagnosis")``);
- ``trace`` — ``RunOutcome.trace``, every span of the run (``to_dict()``);
- ``metrics`` — ``RunOutcome.metrics``, every counter and histogram.

A refactor of the diagnosis walk must leave all three byte-identical:
moving one log line, span or counter fails here, on the tier-1 path,
not only in the ledger's ``campaign_traced`` digest.

The ``metrics`` digests were re-pinned twice; ``log`` and ``trace`` did
not move either time.  First, when the region-wide snapshot intern pool
went with its ``cloud.snapshot.shared`` / ``cloud.snapshot.copied``
counters.  Then, when the metrics became read from the run at export
and ``classify.memo.hits`` / ``classify.memo.misses`` were retired
(always 2x and 1x ``pipeline.records_ingested``): with those two
counters dropped, e008f82's outcomes hash to the values below.

The ``KEYPAIR_WRONG`` and ``SG_WRONG`` rows moved once more, all three
digests, at 693f399, when a fault due after the upgrade's end began to
fire on its completion line.  Their first runs (``keypair_wrong-01``, ``sg_wrong-01``)
are such specs: at 68e0dfe that run injected nothing (the campaign
discarded it and reran the spec earlier), and now it injects at the line.
"""

import hashlib
import json

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, run_single
from repro.evaluation.faults import FAULT_TYPES
from repro.testbed import Testbed

GOLDEN = {
    "AMI_CHANGED": {
        "log": "0cb33b49fbf32b1cbf71415f6570ee8fe03d87e12c63148d2ffa98ac87791d95",
        "trace": "4f4bb4ab56a4e4d6ef1756de60ddddceb1a4e7853a2d47da88b3134d148dd1ca",
        "metrics": "bd78a5849a823ce8d56d2ff1779490c59f8115d7c5ce00e8c55af978f18926f0",
    },
    "KEYPAIR_WRONG": {
        "log": "535cd4e6e8d6c3cce631f064032af3a22434f6e8947170c49389e3e349c2780c",
        "trace": "118f6b76f551127761f738aac260127619cea7121a0769633b55564a2d71a2da",
        "metrics": "94e3de6ec992ddd47c5f38d4321287c43d9fffe1153f4d253c1069d70dbf8b85",
    },
    "SG_WRONG": {
        "log": "d0b2a80e0ba039befc70269dcc7ca76e7422b41aceafda9793718941418b409e",
        "trace": "b6c7d3aa557425d215c5ca18b9ebcde47d0d40be72ee8bca5f688523a73af7d2",
        "metrics": "880f13bc40c1494d6b394997e655bbf98547c26ea74cfe439709232be706f4e4",
    },
    "INSTANCE_TYPE_CHANGED": {
        "log": "e4d41c4d378377caede7c01f1a93ef7b83e0c588f26354d35745c5e2a49fd4cb",
        "trace": "6eb5a220e30ad62874b556d2f2300302c24f525cc8513bb0bc7be04d4f5a6f40",
        "metrics": "99987c256e9e793af0ed6d06b8494e446833abf8923ae148a7e382872729e4ca",
    },
    "AMI_UNAVAILABLE": {
        "log": "6cd3f376c225206cf2aca92910878d4d095e2ad07bae2802b7a7c78626038a1d",
        "trace": "71873f8321bf1f73280964c52e036f8f1a8ff6fff53d2852b9d70b395992967f",
        "metrics": "edf87f99fe76669010e07d62791801621f7ea3c04280e0400f314874196f4671",
    },
    "KEYPAIR_UNAVAILABLE": {
        "log": "bb1227573a77905a0ef5acd61d8480d1b835111b42548feb638495af3adcf17b",
        "trace": "d1f3120dd9abda6f89fb0b9ca35523bd07351467f3ac85d6eed6354f08347fc4",
        "metrics": "80a786e537299a39d41cf23bbcf7e1860a6aeae1790e2fb13d35ecced38fabfa",
    },
    "SG_UNAVAILABLE": {
        "log": "b30f345505674b6b79d0d0c4dab21bbce70171e9f2f4fc750458da4eaeb04a52",
        "trace": "fa496f219f9602080ffce3151431faf19954f182439d6ca3e0e902e4b4503d82",
        "metrics": "a9930d1014fdc53a5dcba70ef0af2c69121b7b61e655ed3d3335a678e47c62ca",
    },
    "ELB_UNAVAILABLE": {
        "log": "ba6534181c0f187abe1ef2ccf7413e638a4afb82b62b0e3cf597d111aa0aed82",
        "trace": "7b50b3ba8009922589125985ceb2b4162c88656dfd4b9a26a678b4d750219da9",
        "metrics": "6c9ab5d42e96d03d130c1d5c41b865f0cee2c8bcc5f93d377436551f1b7f4110",
    },
}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def first_runs():
    """``fault type -> (log, outcome)`` for the first run of each type."""
    specs = Campaign(CampaignConfig(seed=2014, trace=True)).build_specs()
    firsts = {fault: next(s for s in specs if s.fault_type == fault) for fault in FAULT_TYPES}
    logs = []
    original_close = Testbed.close

    def close_keeping_the_log(self):
        logs.append([(r.time, r.message) for r in self.pod.storage.query(type="diagnosis")])
        original_close(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Testbed, "close", close_keeping_the_log)
        outcomes = {fault: run_single(spec) for fault, spec in firsts.items()}
    return {fault: (log, outcomes[fault]) for fault, log in zip(firsts, logs)}


@pytest.mark.parametrize("fault", FAULT_TYPES)
def test_diagnosis_log_trace_and_metrics_are_pinned(first_runs, fault):
    log, outcome = first_runs[fault]
    assert log and outcome.trace and outcome.metrics
    assert {
        "log": digest(log),
        "trace": digest([s.to_dict() for s in outcome.trace]),
        "metrics": digest(outcome.metrics),
    } == GOLDEN[fault]
