"""A record's stamp reads the bytes it would have been written with.

Every emitter writes a record at ``time=clock.now()`` and stores no
stamp; reading ``record.timestamp`` renders ``time``.  So a stamp read
after the run must equal the datetime oracle's rendering of the record's
time, for all four emitters: the operation log, conformance, assertion
and diagnosis results.  A parsed line keeps the stamp it was read with,
and a clockless checker (a replay) passes that stamp through.
"""

import pytest

from repro.evaluation.faults import FaultPlan, schedule_fault
from repro.logsys.ingest import read_log
from repro.logsys.record import tag_entry
from repro.logsys.storage import CentralLogStorage
from repro.operations.rolling_upgrade import build_pattern_library, reference_process_model
from repro.process.conformance import ConformanceChecker
from repro.sim.clock import EPOCH
from repro.testbed import build_testbed

from ..sim.reference_render import reference_render

EMITTED_TYPES = {"operation", "conformance", "assertion", "diagnosis"}


@pytest.fixture(scope="module")
def faulted_run():
    """A seeded 4-instance upgrade whose launches fail (the AMI goes away),
    so assertions fail and diagnosis runs."""
    testbed = build_testbed(cluster_size=4, seed=104)
    schedule_fault(testbed, FaultPlan(fault_type="AMI_UNAVAILABLE", inject_at=30.0))
    testbed.run_upgrade()
    return testbed


def test_all_four_emitters_wrote(faulted_run):
    assert faulted_run.pod.reports
    assert {record.type for record in faulted_run.pod.storage.records} == EMITTED_TYPES


@pytest.mark.parametrize("where", ["stream", "storage"])
def test_every_stamp_read_equals_the_oracle_at_its_time(faulted_run, where):
    records = (
        faulted_run.stream.records if where == "stream" else faulted_run.pod.storage.records
    )
    assert records
    for record in records:
        assert record.stamp is None, record
        assert record.timestamp == reference_render(EPOCH, record.time), record


def test_a_clockless_checker_passes_the_source_stamp_through():
    """Parsed times are relative to the first line, so rendering a time
    would not give the line's own stamp; the stored result must carry that
    stamp, and ``""`` for the unstamped continuation line."""
    lines = [
        "[2013-11-19 11:48:01,100] Pushing ami-1 into group asg-dsn: rolling upgrade task started",
        "continuation line without a stamp",
        "[2013-11-19 11:48:03,600] Updated launch configuration of group asg-dsn to lc-2"
        " with image ami-1",
    ]
    storage = CentralLogStorage()
    checker = ConformanceChecker(
        reference_process_model(), build_pattern_library(), storage=storage
    )
    for record in read_log(lines):
        record.add_entries([tag_entry("trace:replay-1")])
        checker.check(record)
        stored = storage.records[-1]
        assert stored.type == "conformance"
        assert (stored.time, stored.stamp) == (record.time, record.stamp)
        assert stored.timestamp == record.timestamp
    assert [r.timestamp for r in storage.records] == [
        "2013-11-19 11:48:01,100", "", "2013-11-19 11:48:03,600",
    ]
