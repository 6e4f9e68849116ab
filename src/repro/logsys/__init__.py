"""Log substrate: the Logstash-style pipeline of the paper's Fig. 3.

Operations write raw log lines to a :class:`LogStream`.  The *local log
processor* — a pipeline of noise filter, process/assertion annotators,
timer setter (one watchdog per trace) and trigger — turns matched lines
into structured :class:`LogRecord` objects tagged with process context,
fires conformance checking and assertion evaluation, and ships important
lines to the *central log storage*.  The paper's central log processor,
which triggers error diagnosis on failure lines, is served by the two
checks every line already passes through: conformance ``on_error``
(unclassified and known-error lines, unfit steps) and the assertion
service's failures.
"""

from repro.logsys.record import LogRecord, LogStream
from repro.logsys.patterns import LogPattern, PatternLibrary
from repro.logsys.filters import NoiseFilter
from repro.logsys.annotator import AssertionAnnotator, ProcessAnnotator
from repro.logsys.timers import TimerSetter
from repro.logsys.trigger import Trigger
from repro.logsys.pipeline import LocalLogProcessor
from repro.logsys.storage import CentralLogStorage

__all__ = [
    "AssertionAnnotator",
    "CentralLogStorage",
    "LocalLogProcessor",
    "LogPattern",
    "LogRecord",
    "LogStream",
    "NoiseFilter",
    "PatternLibrary",
    "ProcessAnnotator",
    "TimerSetter",
    "Trigger",
]
