"""The central processor routes on type and tags *before* it greps.

Type, conformance tag, ``_seen`` and ``is_failure`` are four pure
predicates, so testing the cheap ones first starts exactly the diagnoses
the old order started; the old body is kept here as the reference.
"""

import itertools

from repro.logsys.central import CentralLogProcessor
from repro.logsys.record import LogRecord
from repro.logsys.storage import CentralLogStorage


def grep_first_on_record(processor: CentralLogProcessor, record: LogRecord) -> None:
    """``CentralLogProcessor._on_record`` through ``d3aa573``."""
    if id(record) in processor._seen:
        return
    if not processor.is_failure(record):
        return
    if record.type in ("diagnosis", "assertion", "conformance"):
        return
    if record.tag_value("conformance") is not None:
        return
    processor._seen.add(id(record))
    processor.triggered.append(record)
    processor.diagnose(record)


TYPES = ("diagnosis", "assertion", "conformance", "operation", "cloudtrail")
TAGS = (["conformance:fit"], ["conformance:error", "trace:t1"], ["trace:t1"], [])
CLEAN = "Remove instance i-1 from ELB"
MESSAGES = (
    "[assertion] asg-has-n-running-instances FAILED",
    "[conformance] unfit: unexpected activity",
    "Exception during rolling upgrade: i-1 is gone",
    "Instance launch failure in zone a",
    CLEAN,
)
TABLE = list(itertools.product(TYPES, TAGS, (True, False), MESSAGES))


def make(type_, tags, message):
    return LogRecord(time=0.0, source="node-1", message=message, type=type_, tags=list(tags))


def processors():
    """(route-first processor and its storage, grep-first reference)."""
    storage = CentralLogStorage()
    new_calls, old_calls = [], []
    new = CentralLogProcessor(storage, new_calls.append)
    old = CentralLogProcessor(CentralLogStorage(), old_calls.append)
    return storage, new, new_calls, old, old_calls


def test_every_truth_table_row_equals_the_grep_first_order():
    for row in TABLE:
        type_, tags, seen, message = row
        storage, new, new_calls, old, old_calls = processors()
        record = make(type_, tags, message)
        if seen:
            new._seen.add(id(record))
            old._seen.add(id(record))
        storage.append(record)
        grep_first_on_record(old, record)
        assert new_calls == old_calls, row
        assert new.triggered == old.triggered, row
        assert new._seen == old._seen, row
        starts_diagnosis = (
            type_ in ("operation", "cloudtrail")
            and not any(tag.startswith("conformance:") for tag in tags)
            and not seen
            and message != CLEAN
        )
        assert new_calls == ([record] if starts_diagnosis else []), row


def test_whole_table_streamed_twice_equals_the_grep_first_order():
    """One processor, every row in sequence, then every row re-appended."""
    storage, new, new_calls, old, old_calls = processors()
    records = [make(type_, tags, message) for type_, tags, _seen, message in TABLE]
    for record in records + records:
        storage.append(record)
        grep_first_on_record(old, record)
    assert [id(r) for r in new_calls] == [id(r) for r in old_calls]
    assert [id(r) for r in new.triggered] == [id(r) for r in old.triggered]
    assert new._seen == old._seen
    assert 0 < len(new_calls) < len(records)


def test_result_lines_are_never_grepped():
    storage = CentralLogStorage()
    diagnosed, grepped = [], []
    processor = CentralLogProcessor(storage, diagnosed.append)
    is_failure = processor.is_failure
    processor.is_failure = lambda record: grepped.append(record) or is_failure(record)
    storage.append(make("diagnosis", [], "root cause: NullPointerException in launch"))
    storage.append(make("operation", ["conformance:fit"], "Exception during upgrade"))
    assert grepped == [] and diagnosed == []
    third_party = make("operation", [], "worker died: Exception in thread main")
    storage.append(third_party)
    assert grepped == [third_party] and diagnosed == [third_party]


def test_third_party_failure_line_starts_one_diagnosis_and_its_reappend_none():
    storage = CentralLogStorage()
    diagnosed = []
    processor = CentralLogProcessor(storage, diagnosed.append)
    line = LogRecord(time=3.0, source="third-party", message="Fatal Exception in worker 7")
    storage.append(line)
    storage.append(line)
    assert diagnosed == [line]
    assert processor.triggered == [line]
