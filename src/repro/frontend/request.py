"""Line fetch requests: the unit of work between front-end and I-cache."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RequestState(enum.Enum):
    """Lifecycle of one line fetch, used for stall attribution (Fig. 8)."""

    #: Queued at the I-interconnect, waiting for a bus grant (contention).
    QUEUED = "queued"
    #: Granted; traversing the bus towards the I-cache.
    ON_BUS = "on-bus"
    #: At the I-cache; the access (hit) is completing.
    CACHE = "cache"
    #: Missed in the I-cache; being served by L2/DRAM.
    MISS = "miss"
    #: Line delivered to the requesting core's line buffer.
    DONE = "done"


@dataclass(slots=True)
class LineRequest:
    """One outstanding I-cache line fetch from a core front-end.

    Attributes:
        core_id: global core index of the requester.
        line_address: the 64 B-aligned address being fetched.
        issued_at: cycle the front-end issued the request.
        state: current lifecycle state.
        granted_at: bus-grant cycle (shared path only).
        arrival_at: cycle the request reaches the cache (after bus latency).
        completion_at: cycle the line lands in the line buffer (set once
            known; misses learn it only after the L2/DRAM path resolves).
        icache_hit: whether the I-cache access hit (set at access time).
    """

    core_id: int
    line_address: int
    issued_at: int
    state: RequestState = RequestState.QUEUED
    granted_at: int | None = None
    arrival_at: int | None = None
    completion_at: int | None = None
    icache_hit: bool | None = None

    def stall_cause(self, now: int) -> str:
        """Which CPI-stack component an empty back-end should charge."""
        if self.state is RequestState.QUEUED:
            return "ibus_congestion"
        if self.state is RequestState.ON_BUS:
            return "ibus_latency"
        if self.state is RequestState.MISS:
            return "memory"
        if self.state is RequestState.CACHE:
            return "icache_latency"
        return "other"
