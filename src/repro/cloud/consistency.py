"""Eventual consistency: serving stale reads.

AWS describe-calls are served by replicas that lag writes; the paper cites
Martin's "Dealing with Eventual Consistency in the AWS EC2 API" and builds
a retry layer because "the supposed status of a specific cloud resource
[may be] different from our expectation".  We model a per-read replication
lag drawn from an exponential distribution: a read at time *t* observes
the authoritative state as of *t - lag*.  Immediately after a write the
old value is likely visible; the probability decays as time passes —
matching the qualitative behaviour that makes naive assertions flap.
"""

from __future__ import annotations

import random

#: Longest replication lag a read can see (seconds): the exponential's
#: tail is cut here.
MAX_LAG = 20.0


class ConsistencyModel:
    """Samples replication lag for reads.

    ``mean_lag`` of 0 gives strong consistency (useful in unit tests);
    the default approximates EC2's typical sub-ten-second convergence.
    """

    def __init__(self, mean_lag: float = 2.5, seed: int = 0) -> None:
        if mean_lag < 0:
            raise ValueError("lags must be non-negative")
        self.mean_lag = mean_lag
        self._rng = random.Random(seed)

    def sample_lag(self) -> float:
        if self.mean_lag == 0:
            return 0.0
        return min(self._rng.expovariate(1.0 / self.mean_lag), MAX_LAG)


class EventuallyConsistentView:
    """Read-side facade over :class:`~repro.cloud.state.CloudState`.

    Every read samples an independent lag, so two back-to-back reads can
    disagree — the exact anomaly the paper's consistent-API wrapper retries
    through.
    """

    def __init__(self, state, clock, model: ConsistencyModel | None = None) -> None:
        self.state = state
        self.clock = clock
        self.model = model or ConsistencyModel()

    def read(self, kind: str, identifier: str) -> dict | None:
        """Possibly-stale describe of one resource (None = not visible).

        Returns the frozen history view directly — no copy.  Counts the
        read as ``cloud.reads.stale`` when the sampled lag pushed the
        effective read time behind the resource's last write (even if the
        served value happens to equal the latest — staleness is about
        *which* write answered), and ``cloud.reads.fresh`` otherwise.
        """
        as_of = max(0.0, self.clock.now() - self.model.sample_lag())
        view = self.state.view_at(kind, identifier, as_of)
        last_write = self.state.last_write_at(kind, identifier)
        if last_write is not None and last_write > as_of:
            self.state._count("cloud.reads.stale")
        else:
            self.state._count("cloud.reads.fresh")
        return view

    def read_consistent(self, kind: str, identifier: str) -> dict | None:
        """Strongly consistent describe — what a retry loop converges to."""
        self.state._count("cloud.reads.fresh")
        return self.state.view_at(kind, identifier, self.clock.now())
