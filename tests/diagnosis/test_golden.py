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

The ``metrics`` digests were re-pinned once, when the region-wide
snapshot intern pool went with its ``cloud.snapshot.shared`` /
``cloud.snapshot.copied`` counters: with those two counters dropped,
57f10d3's outcomes hash to the values below; ``log`` and ``trace`` did
not move.
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
        "metrics": "2e0b10cce99fa7eab8e149f0d10908a88858a2bdbd55cf96ef9d01fb7e24a3df",
    },
    "KEYPAIR_WRONG": {
        "log": "c1626a33484edd1a38dbc82d5993cfec8451b0bf1e92823e75a991513231b5cc",
        "trace": "1435330021ecf084dc5995392c9ac3da71745d2aa4308774e4dc4eeb8e4c0807",
        "metrics": "3f30e1d402d8d8e7527474c61d062b6650bfdc093464e975e17b7bc156fc28b3",
    },
    "SG_WRONG": {
        "log": "fbf81091086bd994f50dc661a97d6fcf677207d717e11e82df8db4d26e1705e1",
        "trace": "ae7b448d3a2e73662c0a347a041c8892e7d178f5fd3ea9a1e2fad1480c394c95",
        "metrics": "2e576ff116abadd38353698b0b904eb50c5300ba46d807274c63e5525d27781a",
    },
    "INSTANCE_TYPE_CHANGED": {
        "log": "e4d41c4d378377caede7c01f1a93ef7b83e0c588f26354d35745c5e2a49fd4cb",
        "trace": "6eb5a220e30ad62874b556d2f2300302c24f525cc8513bb0bc7be04d4f5a6f40",
        "metrics": "777bfa7c58dd9adf2ad5cab552bb47404a49f954955c1bc9b6a90524a70660c4",
    },
    "AMI_UNAVAILABLE": {
        "log": "6cd3f376c225206cf2aca92910878d4d095e2ad07bae2802b7a7c78626038a1d",
        "trace": "71873f8321bf1f73280964c52e036f8f1a8ff6fff53d2852b9d70b395992967f",
        "metrics": "8b9c9b4c5d5f4148528fdb0f31c9d0466e93a3545106a2bc1e4c9f236fbbd340",
    },
    "KEYPAIR_UNAVAILABLE": {
        "log": "bb1227573a77905a0ef5acd61d8480d1b835111b42548feb638495af3adcf17b",
        "trace": "d1f3120dd9abda6f89fb0b9ca35523bd07351467f3ac85d6eed6354f08347fc4",
        "metrics": "95c23f390203f4b30743ef1681b5f343a6193a038c32255b02475835b0055dc1",
    },
    "SG_UNAVAILABLE": {
        "log": "b30f345505674b6b79d0d0c4dab21bbce70171e9f2f4fc750458da4eaeb04a52",
        "trace": "fa496f219f9602080ffce3151431faf19954f182439d6ca3e0e902e4b4503d82",
        "metrics": "ff17b423de3e4a74a930fac7e0cc36bd0e9d8faa9638f224093f22d1a62a5810",
    },
    "ELB_UNAVAILABLE": {
        "log": "ba6534181c0f187abe1ef2ccf7413e638a4afb82b62b0e3cf597d111aa0aed82",
        "trace": "7b50b3ba8009922589125985ceb2b4162c88656dfd4b9a26a678b4d750219da9",
        "metrics": "ab402015adcd9dc99742328abef0c714f7bc36caaf91cfd80214d247787c1831",
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
