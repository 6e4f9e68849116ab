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

All eight ``trace`` digests moved, ``log`` and ``metrics`` did not, when
the trace became read from the run's records at export instead of
recorded by a live tracer: span ids are now handed out in start order,
not in the order the spans were opened.  ``tools/outcome_diff.py``, which
compares traces as id-free forests, found no differing span in any of
the seed-2014 and seed-31 paper and traced campaigns' runs against 6c9a7d0.
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
        "trace": "31e22ea5689c2fc97074cd00547c5e94204debe72bb8eb975dda536983e59ab3",
        "metrics": "d486f583ca18d406b3f999edfbedfea61c2c6b9463119a1643571841286053e7",
    },
    "KEYPAIR_WRONG": {
        "log": "640b5184c1b1a0e47334c3a7f141c7cf0baec6199f8c0ab8446ba23f44900377",
        "trace": "0ba2799d7d85e0ad7750eec2d1c4960df83486067ebc15c5fed919ec5123fe05",
        "metrics": "84f0712fe37d54f328f0054dfa94cf2c1d4c4dbc3734e8875a6c0c7f6b6468d4",
    },
    "SG_WRONG": {
        "log": "dffc36e4110f94c70ba3186676b5d823098afa79b7c310074cc5f86676a3d670",
        "trace": "e6d259de29e3eabc405982a525d4b7a4790ebf78d518dbf8dbe2c636c38af8b6",
        "metrics": "189703dc4d6f15ca2ac5944d56240621bccf523f36effb1d36705159936f2ead",
    },
    "INSTANCE_TYPE_CHANGED": {
        "log": "0feb66b38a0d016b50f1e9b834fffcb800892b67b9e0d267a5d62d02ccc58493",
        "trace": "5703de3fc052ba818a2174e4633733c5bab4f698a07191bf495d18b2a805aa29",
        "metrics": "d253f0ca9902e3cb26cb48cd775a10f3880b094d934ba8c11083a7d2c16fc859",
    },
    "AMI_UNAVAILABLE": {
        "log": "39e56aea1b55c3509e8a49607d9676f0bca623b722edd4938d7e704efe34b6a7",
        "trace": "561a98ed5d0e7f283149a675d0f79b780006b8c87be7253aeb8e39cd4f7ba72d",
        "metrics": "8629e792d1ae468f6396592c41f4408028f14442ef21c07aedcf8bd5d812affe",
    },
    "KEYPAIR_UNAVAILABLE": {
        "log": "257ad946689a7f978bdbe0f874ce176bc595cdf7856f42555575d9272aaaebde",
        "trace": "d9d12fb37d3a6462cf5dec1d50537531893dc3a44cb779368b5db534e78b5747",
        "metrics": "2760c7e1ae87204e0528dd2a97ab088017263f19e44b168030118da6226194a6",
    },
    "SG_UNAVAILABLE": {
        "log": "e8c151265891f0e4ed26f7c2495a4add88499d5ce77894bbf49ce5ef99e05ff7",
        "trace": "7ca3482a8c356e9df4c6fd8d3c42bcf153458afc2b5544bef50c7830c24e88b4",
        "metrics": "ec5ad8cc3685958e73c9cd98b0a80dec321e37a74ce3de1fe464dffda23971e9",
    },
    "ELB_UNAVAILABLE": {
        "log": "18acd006cb91d6a01bf5e04790992889a6d201713080a0e90803e9b35a0064de",
        "trace": "b1a1a2c6068011ea0eeb90b74c8a551094a43a6572b57856dce1e428d110eec6",
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
