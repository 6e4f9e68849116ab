"""Each assertion and diagnosis verdict is stored once and reads as its
eager result log.

Central storage holds the evaluation service's own ``AssertionResult``
and one ``DiagnosisLine`` per diagnosis log line, each rendered when
read.  The references below are the eager builders they replaced: a
``LogRecord`` per fact, with each diagnosis line spelled as its call site
spelled it.  A spy builds the reference at the moment each entry is
stored, so a value that changes after the write (the running excluded
count, a look's params, a result's context) shows as a difference.
"""

import pytest

from repro.evaluation.campaign import Campaign, CampaignConfig, run_single
from repro.logsys.record import LogRecord
from repro.pod.service import PODDiagnosis
from repro.testbed import build_testbed


#: The type of each reference log's source: a ``LogRecord`` is an
#: operation line, so the reference carries its type here.
REFERENCE_TYPES = {"assertion-evaluation.log": "assertion", "diagnosis.log": "diagnosis"}


def reference_result_log(result, now):
    """An assertion result's log, rendered eagerly at ``now``."""
    tags = [
        f"assert:{result.assertion_id}",
        "assertion-failed" if result.failed else "assertion-ok",
        f"cause:{result.cause}",
    ]
    if result.context is not None:
        tags.append(f"trace:{result.context.trace_id}")
        if result.context.step:
            tags.append(f"step:{result.context.step}")
    status = "OK" if result.passed else "FAILED"
    record = LogRecord(
        time=now,
        source="assertion-evaluation.log",
        message=f"[assertion] [{result.assertion_id}] {status}: {result.detail}",
        tags=tags,
    )
    record.fields.update(duration=round(result.duration, 3), params=dict(result.params))
    return record


def reference_diagnosis_log(now, request, message):
    """One diagnosis log line of ``request``, rendered eagerly at ``now``."""
    trace = request.context.trace_id if request.context else "unknown"
    step = request.context.step if request.context else "-"
    return LogRecord(
        time=now,
        source="diagnosis.log",
        message=f"[diagnosis] [{trace}] [{step}] {message}",
        tags=[f"trace:{trace}", f"diagnosis:{request.request_id}"],
    )


def _root_causes(count, _noun):
    noun = "root cause is" if count == 1 else "root causes are"
    return f"{count} {noun} identified"


CHECKING = "Performing on demand assertion checking: %s. %s potential faults in total..."
VERIFYING_PROBE = "Verifying %s: probe %s"
VERIFYING = "Verifying %s: %s %s"
FAULT_EXCLUDED = "Verified %s: fault excluded. %s/%s checks excluded"
CHECK_INCONCLUSIVE = "Check for %s inconclusive; cannot proceed below"
VERIFICATION_FAILED = "Failed verification at %s: %s"
ROOT_CAUSES = "%s %s identified"

#: Each diagnosis log line as its call site spelled it, by the template
#: the engine stores for it.
CALL_SITES = {
    CHECKING: lambda detail, count: (
        f"Performing on demand assertion checking: {detail}. {count} potential faults in total..."
    ),
    VERIFYING_PROBE: lambda node_id, name: f"Verifying {node_id}: probe {name}",
    VERIFYING: lambda node_id, name, params: f"Verifying {node_id}: {name} {params}",
    FAULT_EXCLUDED: lambda node_id, excluded, potential: (
        f"Verified {node_id}: fault excluded. {excluded}/{potential} checks excluded"
    ),
    CHECK_INCONCLUSIVE: lambda node_id: f"Check for {node_id} inconclusive; cannot proceed below",
    VERIFICATION_FAILED: lambda node_id, description: (
        f"Failed verification at {node_id}: {description}"
    ),
    "No root cause identified": lambda: "No root cause identified",
    ROOT_CAUSES: _root_causes,
}

#: Prefixes and tags some stored entries carry, or none does.
PROBE_PREFIXES = (
    "assert", "cause", "trace", "step", "diagnosis", "conformance", "", "trace:unknown",
)
PROBE_TAGS = (
    "assertion-ok", "assertion-failed", "cause:log", "cause:on-demand", "cause:timer-timeout",
    "trace:unknown", "step:", "trace", "assert", "",
)


def spy(pod):
    """``[(entry, reference)]``, appended as ``pod`` stores each assertion
    or diagnosis verdict: the eager log built at that moment."""
    expected = []
    storage, now = pod.storage, lambda: pod.engine.now
    append, log = storage.append, pod.diagnosis._log

    def store(entry):
        append(entry)
        if entry.type == "assertion":
            expected.append((entry, reference_result_log(entry, now())))

    def log_line(request, template, *args):
        log(request, template, *args)
        message = CALL_SITES[template](*args)
        expected.append((storage.records[-1], reference_diagnosis_log(now(), request, message)))

    storage.append = store
    pod.diagnosis._log = log_line
    return expected


def assert_stored_as_referenced(pod, expected):
    stored = [entry for entry in pod.storage.records if entry.type in ("assertion", "diagnosis")]
    assert len(stored) == len(expected)
    assert all(entry is spied for entry, (spied, _) in zip(stored, expected))
    results = [entry for entry in stored if entry.type == "assertion"]
    assert len(results) == len(pod.assertions.results)
    assert all(entry is result for entry, result in zip(results, pod.assertions.results))
    for entry, reference in expected:
        assert entry.time == reference.time
        assert entry.source == reference.source
        assert entry.type == REFERENCE_TYPES[reference.source]
        assert entry.message == reference.message
        assert entry.tags == reference.tags
        assert entry.fields == reference.fields
        assert entry.timestamp == reference.timestamp
        assert str(entry) == str(reference)
        for prefix in PROBE_PREFIXES:
            assert entry.tag_value(prefix) == reference.tag_value(prefix), prefix
        for tag in [*reference.tags, *PROBE_TAGS]:
            assert entry.has_tag(tag) == reference.has_tag(tag), tag


def lines(pod, template):
    return [e for e in pod.storage.query(type="diagnosis") if e.template == template]


def test_wrong_ami_run_stores_each_verdict_once():
    testbed = build_testbed(cluster_size=4, seed=102)
    expected = spy(testbed.pod)

    def inject():
        yield testbed.engine.timeout(40)
        rogue = testbed.cloud.api("rogue").register_image("rogue", "v9")["ImageId"]
        testbed.cloud.injector.change_lc_ami("lc-app-v2", rogue)

    testbed.engine.process(inject())
    testbed.run_upgrade()
    pod = testbed.pod
    assert any(result.failed for result in pod.assertions.results)
    assert lines(pod, VERIFYING) and lines(pod, FAULT_EXCLUDED)
    assert lines(pod, VERIFICATION_FAILED) and lines(pod, ROOT_CAUSES)
    assert_stored_as_referenced(pod, expected)


@pytest.fixture(scope="module")
def severe_recover_run():
    """A severe-chaos + recover campaign run at seed 2014, spied from the
    service's construction on."""
    (spec,) = [
        spec
        for spec in Campaign(
            CampaignConfig(runs_per_fault=1, large_cluster_runs=0, seed=2014,
                           chaos_profile="severe", recover=True)
        ).build_specs()
        if spec.run_id == "ami_unavailable-01"
    ]
    spied = []
    construct = PODDiagnosis.__init__

    def construct_spied(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        spied.append((self, spy(self)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PODDiagnosis, "__init__", construct_spied)
        run_single(spec)
    (run,) = spied
    return run


def test_severe_recover_run_stores_each_verdict_once(severe_recover_run):
    pod, expected = severe_recover_run
    results = pod.assertions.results
    assert any(r.detail.startswith("evaluation aborted by API failure") for r in results)
    assert any(r.degraded for r in results) and any(r.context is None for r in results)
    assert lines(pod, CHECK_INCONCLUSIVE) and lines(pod, VERIFYING_PROBE)
    assert_stored_as_referenced(pod, expected)


def test_a_diagnosis_without_context_logs_unknown_and_dash(severe_recover_run):
    pod, _ = severe_recover_run
    headers = [line for line in lines(pod, CHECKING) if line.trace_id == "unknown"]
    assert headers
    for line in headers:
        assert line.message.startswith("[diagnosis] [unknown] [-] Performing on demand")
        assert line.tags == ["trace:unknown", f"diagnosis:{line.request_id}"]
