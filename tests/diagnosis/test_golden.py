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

All eight ``metrics`` digests moved once more when the walk's cache
counters (``diagnosis.tests_cached``, ``diagnosis.cache.hits``,
``diagnosis.cache.misses``) were retired: 11e3a94's outcomes with those
three counters dropped hash to the values below.  And again when the
eventual-consistency model went with its ``cloud.reads.stale`` /
``cloud.reads.fresh`` counters: 83bdbf9's outcomes with those two
counters dropped hash to the values below.  And again when the monitor
stopped copying views and its ``cloud.monitor.refreshed`` /
``cloud.monitor.reused`` counters went: 8b8fc76's outcomes with those
two counters dropped hash to the values below.

All eight ``log`` and ``trace`` digests moved, ``metrics`` did not, when
each root cause got one node id across the trees: ``lc-wrong-*`` became
``wrong-*``, ``registration-launch-failing`` and ``deviation-launch-failing``
became ``instance-launch-failing``, and ``deviation-elb-unavailable``
became ``elb-unavailable``.  c0aa437's logs and traces with those ids
renamed hash to the values below; the walk's decisions did not change.
"""

import hashlib
import json

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, run_single
from repro.evaluation.faults import FAULT_TYPES
from repro.testbed import Testbed

GOLDEN = {
    "AMI_CHANGED": {
        "log": "683955d0fb309f7c363d876f132f9afc3cca3621cc0d77e7d8eac94d0178a46b",
        "trace": "53d3adb66e97e46c6cf07264111c52d0a69c9feb432a4738f4325696876e273e",
        "metrics": "d486f583ca18d406b3f999edfbedfea61c2c6b9463119a1643571841286053e7",
    },
    "KEYPAIR_WRONG": {
        "log": "640b5184c1b1a0e47334c3a7f141c7cf0baec6199f8c0ab8446ba23f44900377",
        "trace": "688d5f79198945860873ba209b26d1407f7e72d8c7a901717fc7466d32f7058e",
        "metrics": "84f0712fe37d54f328f0054dfa94cf2c1d4c4dbc3734e8875a6c0c7f6b6468d4",
    },
    "SG_WRONG": {
        "log": "dffc36e4110f94c70ba3186676b5d823098afa79b7c310074cc5f86676a3d670",
        "trace": "72389d6439299a53b44a0102bbf195d9c8bdc8df8a242491dce7b53f0c9f3460",
        "metrics": "189703dc4d6f15ca2ac5944d56240621bccf523f36effb1d36705159936f2ead",
    },
    "INSTANCE_TYPE_CHANGED": {
        "log": "0feb66b38a0d016b50f1e9b834fffcb800892b67b9e0d267a5d62d02ccc58493",
        "trace": "2df97a75fae5ac75a7a8901c5e6626118bc27d8cd11762c854758ab88c6f8a0b",
        "metrics": "d253f0ca9902e3cb26cb48cd775a10f3880b094d934ba8c11083a7d2c16fc859",
    },
    "AMI_UNAVAILABLE": {
        "log": "39e56aea1b55c3509e8a49607d9676f0bca623b722edd4938d7e704efe34b6a7",
        "trace": "33c65728dbc4dfd237df2e100002d16f6307e64a530854adb4c0b3c5187ab926",
        "metrics": "8629e792d1ae468f6396592c41f4408028f14442ef21c07aedcf8bd5d812affe",
    },
    "KEYPAIR_UNAVAILABLE": {
        "log": "257ad946689a7f978bdbe0f874ce176bc595cdf7856f42555575d9272aaaebde",
        "trace": "ce992e4c0d54b3bcb110474759e15d2e27019f99b21aeff9a130337383299316",
        "metrics": "2760c7e1ae87204e0528dd2a97ab088017263f19e44b168030118da6226194a6",
    },
    "SG_UNAVAILABLE": {
        "log": "e8c151265891f0e4ed26f7c2495a4add88499d5ce77894bbf49ce5ef99e05ff7",
        "trace": "7840e2c27e34de0a982131d37ddc13c0e9811fbda4afd72b730d5f49ea1aae72",
        "metrics": "ec5ad8cc3685958e73c9cd98b0a80dec321e37a74ce3de1fe464dffda23971e9",
    },
    "ELB_UNAVAILABLE": {
        "log": "18acd006cb91d6a01bf5e04790992889a6d201713080a0e90803e9b35a0064de",
        "trace": "a6b402e8ddd51fa84db0c3498467960328c215d429f54b99426d151eaeecd36f",
        "metrics": "11b9c184983136f9cd37efb2d78494497fc81712dc6d17c1cd35582f426e5419",
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
