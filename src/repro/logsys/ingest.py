"""Log ingestion: raw log lines → LogRecords.

The paper's pipeline starts from real log files on the operation node.
This module reads such recorded lines (the ledger's ``ingest_replay``
corpus is one):

- :func:`parse_line` understands the log4j-style prefix Asgard writes
  (``[2013-11-19 11:48:01,100] message``), falling back to an un-stamped
  body;
- :func:`read_log` turns an iterable of lines (an open file is one) into
  :class:`~repro.logsys.record.LogRecord` objects with times relative to
  the first stamped line, ready to be emitted into a
  :class:`~repro.logsys.record.LogStream` one at a time.
"""

from __future__ import annotations

import datetime as _dt
import re
import typing as _t

from repro.logsys.record import LogRecord

#: ``[2013-11-19 11:48:01,100] body`` — the Asgard/log4j prefix.
_STAMPED = re.compile(
    r"^\[(?P<ts>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3})\]\s?(?P<body>.*)$"
)

_TS_FORMAT = "%Y-%m-%d %H:%M:%S,%f"


def parse_line(line: str) -> tuple[_dt.datetime | None, str]:
    """Split one raw line into (timestamp or None, message body).

    A prefix shaped like a stamp that is not a real date
    (``[2013-02-30 00:00:00,000]``) makes the line an unstamped one: the
    whole line is the body.
    """
    line = line.rstrip("\n")
    match = _STAMPED.match(line)
    if match is None:
        return None, line
    try:
        stamp = _dt.datetime.strptime(match["ts"] + "000", _TS_FORMAT)
    except ValueError:
        return None, line
    return stamp, match["body"]


def read_log(lines: _t.Iterable[str]) -> list[LogRecord]:
    """Parse raw lines into records with relative virtual times, each
    from the source ``recorded.log``.

    Times are seconds since the first stamped line; unstamped lines
    inherit the previous line's time (log4j continuation behaviour).
    Blank lines are skipped.
    """
    records: list[LogRecord] = []
    epoch: _dt.datetime | None = None
    current = 0.0
    for line in lines:
        if not line.strip():
            continue
        stamp, body = parse_line(line)
        if stamp is not None:
            if epoch is None:
                epoch = stamp
            current = (stamp - epoch).total_seconds()
        records.append(
            LogRecord(
                time=current,
                source="recorded.log",
                message=body,
                timestamp=stamp.strftime("%Y-%m-%d %H:%M:%S,") + f"{stamp.microsecond // 1000:03d}"
                if stamp
                else "",
            )
        )
    return records

