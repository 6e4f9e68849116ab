"""Operation base class: an orchestrated cloud activity emitting logs.

An operation is the orchestrator-side of a sporadic change (the paper's
"operation node", e.g. where Asgard runs): a simulation process that calls
cloud APIs and writes Asgard-style log lines to its operation log stream.
POD-Diagnosis watches those logs; it never instruments the operation —
non-intrusiveness is an explicit design property of the paper.
"""

from __future__ import annotations

import typing as _t

from repro.cloud.api import TimedCloudClient
from repro.cloud.errors import CloudError
from repro.logsys.record import LogStream

PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"


class Operation:
    """Base class for orchestrated operations."""

    def __init__(
        self,
        engine,
        client: TimedCloudClient,
        stream: LogStream,
        name: str,
        trace_id: str,
    ) -> None:
        self.engine = engine
        self.client = client
        self.stream = stream
        self.name = name
        self.trace_id = trace_id
        self.status = PENDING
        self.error: Exception | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Progress record a recovery supervisor can resume from (set by
        #: subclasses that support checkpointing; None otherwise).
        self.checkpoint = None
        self._process = None

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        """Launch the operation as a simulation process."""
        if self._process is not None:
            raise RuntimeError(f"operation {self.name} already started")
        self._process = self.engine.process(self._wrapped(), name=self.name)
        return self._process

    def _wrapped(self) -> _t.Generator:
        self.status = RUNNING
        self.started_at = self.engine.now
        try:
            yield from self.run()
        except CloudError as exc:
            self.status = FAILED
            self.error = exc
            self.log(f"Exception during {self.name}: {exc}")
        except Exception as exc:  # orchestrator bug: surface as failure
            self.status = FAILED
            self.error = exc
            self.log(f"Exception during {self.name}: {type(exc).__name__}: {exc}")
        else:
            if self.status == RUNNING:
                self.status = COMPLETED
        finally:
            self.finished_at = self.engine.now

    def run(self) -> _t.Generator:
        """The operation body; subclasses override."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def log(self, message: str) -> None:
        """Emit one Asgard-style log line to the operation log."""
        self.stream.emit_line(self.engine.clock, message, source=self.stream.name)

    def call(self, method: str, *args, **kwargs) -> _t.Generator:
        """One latency-paying API call: ``result = yield from self.call(...)``."""
        return self.client.call(method, *args, **kwargs)

    def fail(self, message: str) -> None:
        """Mark the operation failed and log the failure."""
        self.status = FAILED
        self.log(message)

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at
