"""CloudTrail: the delayed API-call audit log.

The paper evaluated CloudTrail and rejected it for *online* diagnosis
because "the delay (up to 15 minutes) between a call and its CloudTrail
log appearing is not suitable".  We reproduce exactly that: every API call
is recorded immediately, but :meth:`lookup_events` only returns records
older than the delivery delay.  A later diagnosis, once the delay has
passed, sees them through the same lookup.
"""

from __future__ import annotations

import dataclasses
import random


@dataclasses.dataclass(slots=True)
class TrailRecord:
    """One audit record: who called what, when, with which outcome.

    The one record of an API call: the trail keeps it for delayed lookup,
    and the calling principal's ``CloudAPI.calls`` holds the same object.
    """

    event_time: float
    event_name: str
    principal: str
    request_parameters: dict
    error_code: str | None = None
    #: When this record becomes visible through lookup_events.
    delivery_time: float = 0.0

    def visible_at(self, now: float) -> bool:
        return now >= self.delivery_time


#: Delivery delay bounds (seconds): each record's delay is uniform in
#: ``[MIN_DELAY, MAX_DELAY]`` — the paper reports "up to 15 minutes".
MIN_DELAY = 300.0
MAX_DELAY = 900.0


class CloudTrail:
    """Audit log with per-record delivery delay."""

    def __init__(self, clock, seed: int = 0) -> None:
        self.clock = clock
        self._rng = random.Random(seed)
        self._records: list[TrailRecord] = []

    def record(
        self,
        event_name: str,
        principal: str,
        request_parameters: dict,
        error_code: str | None = None,
    ) -> TrailRecord:
        now = self.clock.now()
        record = TrailRecord(
            event_time=now,
            event_name=event_name,
            principal=principal,
            request_parameters=dict(request_parameters),
            error_code=error_code,
            delivery_time=now + self._rng.uniform(MIN_DELAY, MAX_DELAY),
        )
        self._records.append(record)
        return record

    def lookup_events(
        self,
        start: float = 0.0,
        event_name: str | None = None,
        principal: str | None = None,
    ) -> list[TrailRecord]:
        """Records from ``start`` on that have already been *delivered*.

        This is the online view — recent calls are invisible, which is why
        POD-Diagnosis cannot attribute, e.g., a random instance termination
        to its author in real time (§V.B).
        """
        now = self.clock.now()
        result = []
        for record in self._records:
            if not record.visible_at(now):
                continue
            if not start <= record.event_time <= now:
                continue
            if event_name is not None and record.event_name != event_name:
                continue
            if principal is not None and record.principal != principal:
                continue
            result.append(record)
        return result

    def undelivered_count(self) -> int:
        now = self.clock.now()
        return sum(1 for r in self._records if not r.visible_at(now))
