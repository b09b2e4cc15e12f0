"""Cycle-stepped shared bus (Table I: 32 B wide, 2-cycle latency + contention).

The bus carries cache-line transactions between requesters (core
front-ends) and a cache. One transaction occupies the bus for
``ceil(payload / width)`` cycles — two cycles for a 64 B line over a 32 B
bus — during which no other requester is granted; the time a request spends
queued before its grant is the paper's "contention" term.

The same class models the L2-DRAM bus (Table I: 32 B wide, 4-cycle
latency + contention) shared by all L2 caches on the miss path.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.interconnect.arbitration import Arbiter, RoundRobinArbiter
from repro.utils import require_positive


@dataclass(slots=True)
class BusRequest:
    """One queued transaction."""

    requester: int
    address: int
    issued_at: int
    payload_bytes: int
    meta: object = None
    granted_at: int = -1

    @property
    def wait_cycles(self) -> int:
        if self.granted_at < 0:
            raise SimulationError("wait_cycles read before grant")
        return self.granted_at - self.issued_at


@dataclass
class BusStats:
    transactions: int = 0
    busy_cycles: int = 0
    wait_cycles: int = 0
    per_requester_transactions: dict[int, int] = field(default_factory=dict)
    per_requester_wait: dict[int, int] = field(default_factory=dict)

    def utilization(self, elapsed_cycles: int) -> float:
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_cycles / elapsed_cycles

    @property
    def mean_wait(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.wait_cycles / self.transactions


class Bus:
    """A single shared bus with pluggable arbitration.

    Args:
        requester_count: number of attached requesters.
        width_bytes: datapath width; with 64 B lines and the paper's 32 B
            width every line transfer occupies the bus for 2 cycles.
        latency: pipeline latency a granted transaction experiences before
            it reaches the far side (2 cycles for the I-interconnect,
            4 for the L2-DRAM bus).
        arbiter: arbitration policy; defaults to round-robin (Table I).
    """

    def __init__(
        self,
        requester_count: int,
        width_bytes: int = 32,
        latency: int = 2,
        arbiter: Arbiter | None = None,
        name: str = "bus",
    ) -> None:
        require_positive(requester_count, "requester_count")
        require_positive(width_bytes, "width_bytes")
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        self.name = name
        self.requester_count = requester_count
        self.width_bytes = width_bytes
        self.latency = latency
        self._arbiter = arbiter if arbiter is not None else RoundRobinArbiter(requester_count)
        self._queues: list[deque[BusRequest]] = [deque() for _ in range(requester_count)]
        #: Requests queued across all requesters, kept by request, step
        #: and flush_requester so horizon probes never sum queues.
        self._pending = 0
        self._busy_until = 0
        #: Busy cycles are charged up to (exclusive) this cycle; live
        #: steps settle one cycle at a time, a sleeping interconnect
        #: component settles the whole elided window on wake-up.
        self._busy_accounted_to = 0
        self.stats = BusStats()

    def transfer_cycles(self, payload_bytes: int) -> int:
        """Bus occupancy of one transaction."""
        return max(1, math.ceil(payload_bytes / self.width_bytes))

    def request(
        self,
        requester: int,
        address: int,
        now: int,
        payload_bytes: int = 64,
        meta: object = None,
    ) -> BusRequest:
        """Queue a transaction; it competes for grants in later cycles."""
        if not (0 <= requester < self.requester_count):
            raise SimulationError(
                f"requester {requester} outside [0, {self.requester_count})"
            )
        req = BusRequest(
            requester=requester,
            address=address,
            issued_at=now,
            payload_bytes=payload_bytes,
            meta=meta,
        )
        self._queues[requester].append(req)
        self._pending += 1
        return req

    @property
    def pending_requests(self) -> int:
        return self._pending

    def grant_horizon(self, cycle: int) -> int | None:
        """Earliest cycle >= ``cycle`` at which a grant could happen.

        ``None`` when no request is queued (only an in-flight transfer,
        if any, keeps the bus busy; its per-cycle busy accounting is
        recoverable in one step via :meth:`settle_busy`, so stepping the
        bus before the next request arrives is a provable no-op).
        """
        if self._pending == 0:
            return None
        return max(cycle, self._busy_until)

    def settle_busy(self, upto: int) -> int:
        """Charge the busy cycles of ``[accounted, min(upto, busy_end))``.

        Returns the number of cycles charged, so a sleeping interconnect
        component can report how many per-cycle steps it batched away.
        A stepped run reaches the identical total one cycle at a time.
        """
        end = min(upto, self._busy_until)
        charged = end - self._busy_accounted_to
        if charged <= 0:
            return 0
        self.stats.busy_cycles += charged
        self._busy_accounted_to = end
        return charged

    def step(self, now: int) -> BusRequest | None:
        """Advance one cycle; return the request granted this cycle, if any.

        The caller delivers the granted request to the cache side after the
        bus ``latency``.
        """
        if now < self._busy_until:
            self.settle_busy(now + 1)
            return None
        if not self._pending:
            return None
        candidates = [
            requester
            for requester, queue in enumerate(self._queues)
            if queue and queue[0].issued_at <= now
        ]
        if not candidates:
            return None
        winner = self._arbiter.select(candidates)
        request = self._queues[winner].popleft()
        self._pending -= 1
        request.granted_at = now
        occupancy = self.transfer_cycles(request.payload_bytes)
        self._busy_until = now + occupancy
        self._busy_accounted_to = now
        self.settle_busy(now + 1)  # the grant cycle itself counts busy
        self.stats.transactions += 1
        wait = request.wait_cycles
        self.stats.wait_cycles += wait
        per_tx = self.stats.per_requester_transactions
        per_tx[winner] = per_tx.get(winner, 0) + 1
        per_wait = self.stats.per_requester_wait
        per_wait[winner] = per_wait.get(winner, 0) + wait
        return request

    def flush_requester(self, requester: int) -> int:
        """Drop queued (not yet granted) requests of one requester.

        Used on branch-misprediction redirects. Returns the drop count.
        """
        queue = self._queues[requester]
        dropped = len(queue)
        queue.clear()
        self._pending -= dropped
        return dropped
