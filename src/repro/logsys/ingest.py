"""Log ingestion: raw text files → LogRecords → replayed streams.

The paper's pipeline starts from real log files on the operation node.
This module closes that loop for recorded logs:

- :func:`parse_line` understands the log4j-style prefix Asgard writes
  (``[2013-11-19 11:48:01,100] message``), falling back to an un-stamped
  body;
- :func:`read_log` turns a text file (or iterable of lines) into
  :class:`~repro.logsys.record.LogRecord` objects with times relative to
  the first stamped line;
- :class:`LogReplayer` feeds recorded records into a live
  :class:`~repro.logsys.record.LogStream` at their original relative
  times inside a simulation — so the whole POD pipeline (conformance,
  assertions, diagnosis) can be exercised against a captured log.
"""

from __future__ import annotations

import datetime as _dt
import re
import typing as _t

from repro.logsys.record import LogRecord, LogStream

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


def read_log(
    lines: _t.Iterable[str],
    source: str = "recorded.log",
    type: str = "operation",
) -> list[LogRecord]:
    """Parse raw lines into records with relative virtual times.

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
                source=source,
                message=body,
                type=type,
                timestamp=stamp.strftime("%Y-%m-%d %H:%M:%S,") + f"{stamp.microsecond // 1000:03d}"
                if stamp
                else "",
            )
        )
    return records


def read_log_file(path) -> list[LogRecord]:
    """Parse a log file from disk."""
    with open(path) as handle:
        return read_log(handle, source=str(path))


def write_log_file(records: _t.Iterable[LogRecord], path) -> int:
    """Persist records as raw stamped lines (the inverse of read_log)."""
    count = 0
    with open(path, "w") as handle:
        for record in records:
            stamp = record.timestamp or ""
            prefix = f"[{stamp}] " if stamp else ""
            handle.write(f"{prefix}{record.message}\n")
            count += 1
    return count


class LogReplayer:
    """Replay recorded records into a live stream inside a simulation.

    The records' relative times are preserved: a record at t=+95.3 is
    emitted 95.3 virtual seconds after :meth:`start`.  ``speedup``
    compresses time for quick offline re-analysis.
    """

    def __init__(self, engine, stream: LogStream, records: _t.Sequence[LogRecord],
                 speedup: float = 1.0) -> None:
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        self.engine = engine
        self.stream = stream
        self.records = sorted(records, key=lambda r: r.time)
        self.speedup = speedup
        self.emitted = 0
        self.done = False

    def start(self):
        return self.engine.process(self._run(), name=f"replay-{self.stream.name}")

    def _run(self) -> _t.Generator:
        start_time = self.engine.now
        base = self.records[0].time if self.records else 0.0
        for record in self.records:
            target = start_time + (record.time - base) / self.speedup
            delay = target - self.engine.now
            if delay > 0:
                yield self.engine.timeout(delay)
            # Re-stamp into the simulation's clock so downstream
            # components see consistent virtual times.
            replayed = LogRecord(
                time=self.engine.now,
                source=record.source,
                message=record.message,
                type=record.type,
                timestamp=self.engine.clock.render(),
            )
            self.stream.emit(replayed)
            self.emitted += 1
        self.done = True
