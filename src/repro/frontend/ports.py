"""I-cache ports: the private path and the shared bus + cache group.

Two implementations of the same duty — turn a line request into a future
line-buffer fill:

* :class:`PrivateIcachePort` (Fig. 5a): a 1-cycle private I-cache in front
  of the core's L2.
* :class:`SharedIcacheGroup` (Fig. 5b): a set of cores behind a single or
  double bus (Table I: 32 B wide, 2 cycles + contention, round-robin)
  sharing one I-cache, with MSHRs merging same-line misses across cores —
  the mechanism behind the paper's cross-thread mutual prefetching.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cache.mshr import MshrFile
from repro.cache.set_assoc import SetAssociativeCache
from repro.engine import NEVER
from repro.errors import SimulationError
from repro.frontend.request import LineRequest, RequestState
from repro.interconnect.multibus import MultiBus
from repro.memory.hierarchy import InstructionHierarchy

#: Callback invoked when a request's line lands in the core's line buffer.
FillCallback = Callable[[LineRequest], None]
#: Scheduler hook: schedule(cycle, callback) runs the callback at `cycle`.
Scheduler = Callable[[int, Callable[[], None]], None]
#: Ready/wake hook: wake_listener(core_id) returns a sleeping core's
#: components to the kernel's run list (fill completions).
WakeListener = Callable[[int], None]
#: Accounting hook: stall_listener(core_id, cycle) tells a sleeping
#: core that its in-flight request changed lifecycle state at `cycle`,
#: so batched stall attribution must settle the old cause up to there.
StallListener = Callable[[int, int], None]


class PrivateIcachePort:
    """Baseline path: a private I-cache with a fixed access latency."""

    def __init__(
        self,
        core_id: int,
        cache: SetAssociativeCache,
        hierarchy: InstructionHierarchy,
        scheduler: Scheduler,
        on_fill: FillCallback,
        latency: int = 1,
    ) -> None:
        self.core_id = core_id
        self.cache = cache
        self.hierarchy = hierarchy
        self._schedule = scheduler
        self._on_fill = on_fill
        self.latency = latency
        #: Set by the system assembly when running under the scheduler.
        self.wake_listener: WakeListener | None = None

    def request(self, line_address: int, now: int) -> LineRequest:
        """Issue a fetch; the fill callback fires at the completion cycle."""
        request = LineRequest(self.core_id, line_address, issued_at=now)
        hit = self.cache.lookup(line_address)
        request.arrival_at = now
        request.icache_hit = hit
        if hit:
            request.state = RequestState.CACHE
            request.completion_at = now + self.latency
        else:
            request.state = RequestState.MISS
            miss = self.hierarchy.fetch_line(line_address, now + self.latency)
            request.completion_at = miss.completion_cycle
            line = line_address
            self._schedule(
                request.completion_at, lambda: self.cache.fill(line)
            )
        self._schedule(request.completion_at, lambda: self._complete(request))
        return request

    def _complete(self, request: LineRequest) -> None:
        request.state = RequestState.DONE
        self._on_fill(request)
        if self.wake_listener is not None:
            self.wake_listener(self.core_id)

    def release(self) -> None:
        """Drop the callbacks into the core (see ``System.release``)."""
        self._on_fill = self.wake_listener = None


class SharedIcacheGroup:
    """A group of cores sharing one I-cache behind an I-interconnect.

    The group owns the multi-bus (single or double, Section VI-B), the
    shared cache, its MSHRs and the L2 hierarchy behind it. Its
    interconnect component steps it on every cycle a grant may happen
    (see :meth:`wake_horizon`).
    """

    def __init__(
        self,
        core_ids: list[int],
        cache: SetAssociativeCache,
        hierarchy: InstructionHierarchy,
        interconnect: MultiBus,
        scheduler: Scheduler,
        fill_callbacks: dict[int, FillCallback],
        icache_latency: int = 1,
        mshr_capacity: int = 16,
    ) -> None:
        if interconnect.requester_count != len(core_ids):
            raise SimulationError(
                f"interconnect has {interconnect.requester_count} ports for "
                f"{len(core_ids)} cores"
            )
        self.core_ids = list(core_ids)
        self._slot_of = {core: slot for slot, core in enumerate(core_ids)}
        self.cache = cache
        self.hierarchy = hierarchy
        self.interconnect = interconnect
        self._schedule = scheduler
        self._fill_callbacks = fill_callbacks
        self.icache_latency = icache_latency
        self.mshrs = MshrFile(mshr_capacity)
        #: Ready/wake hooks, set by the system assembly when running
        #: under the scheduler (all optional; None = polled operation).
        self.wake_listener: WakeListener | None = None
        self.stall_listener: StallListener | None = None
        #: Fired whenever a new request enters the interconnect, so the
        #: kernel can return an idle (deregistered) interconnect
        #: component to the run list for same-cycle arbitration.
        self.activity_listener: Callable[[], None] | None = None

    def request(self, line_address: int, now: int, core_id: int) -> LineRequest:
        """Queue a fetch on the I-interconnect for arbitration."""
        request = LineRequest(core_id, line_address, issued_at=now)
        self._enqueue(self._slot_of[core_id], line_address, now, request)
        return request

    def _enqueue(
        self, slot: int, line_address: int, now: int, request: LineRequest
    ) -> None:
        self.interconnect.request(slot, line_address, now, meta=request)
        if self.activity_listener is not None:
            self.activity_listener()

    def port_for(self, core_id: int) -> "SharedPortView":
        """A per-core facade matching the private port's request signature."""
        return SharedPortView(self, core_id)

    def step(self, now: int) -> None:
        """Arbitrate the buses and process this cycle's grants."""
        for granted in self.interconnect.step(now):
            request = granted.meta
            if not isinstance(request, LineRequest):
                raise SimulationError("bus grant without an attached LineRequest")
            request.granted_at = now
            request.state = RequestState.ON_BUS
            arrival = now + self.interconnect.latency
            request.arrival_at = arrival
            self._schedule(arrival, lambda r=request: self._access_cache(r))
            if self.stall_listener is not None:
                # The wait cause flips from bus congestion to bus
                # latency: settle a sleeping core's attribution.
                self.stall_listener(request.core_id, now)

    def _access_cache(self, request: LineRequest) -> None:
        now = request.arrival_at
        assert now is not None
        line = request.line_address
        try:
            if self.mshrs.outstanding(line):
                # A miss for this line is already in flight (another core's
                # fetch): merge — mutual prefetching in action. The secondary
                # request is a hit-under-miss: it does not re-read L2, and it
                # is not counted as an additional I-cache miss.
                request.state = RequestState.MISS
                request.icache_hit = False
                self.cache.stats.record_hit()
                self.mshrs.request(line, request)
                return
            hit = self.cache.lookup(line)
            request.icache_hit = hit
            if hit:
                request.state = RequestState.CACHE
                request.completion_at = now + self.icache_latency
                self._schedule(
                    request.completion_at, lambda: self._complete(request)
                )
                return
            request.state = RequestState.MISS
            outcome = self.mshrs.request(line, request)
            if outcome == "full":
                # No MSHR free: the request must re-arbitrate later. Model
                # the retry as a fixed back-off before re-queuing on the bus.
                slot = self._slot_of[request.core_id]
                self._schedule(
                    now + 2,
                    lambda: self._enqueue(slot, line, now + 2, request),
                )
                request.state = RequestState.QUEUED
                return
            miss = self.hierarchy.fetch_line(line, now + self.icache_latency)
            done = miss.completion_cycle
            self._schedule(done, lambda: self._fill_line(line, done))
        finally:
            # Whatever lifecycle state the access resolved to, a sleeping
            # core's stall attribution must settle at this boundary.
            if self.stall_listener is not None:
                self.stall_listener(request.core_id, now)

    def _fill_line(self, line: int, now: int) -> None:
        self.cache.fill(line)
        for waiter in self.mshrs.complete(line):
            if isinstance(waiter, LineRequest):
                waiter.completion_at = now
                self._complete(waiter)

    def _complete(self, request: LineRequest) -> None:
        request.state = RequestState.DONE
        callback = self._fill_callbacks[request.core_id]
        callback(request)
        if self.wake_listener is not None:
            self.wake_listener(request.core_id)

    def flush_core(self, core_id: int) -> int:
        """Drop a core's not-yet-granted bus requests (redirect flush)."""
        return self.interconnect.flush_requester(self._slot_of[core_id])

    def wake_horizon(self, cycle: int) -> int | None:
        """Sleep plan for the group's interconnect component.

        All in-flight work past the bus (cache accesses, L2/DRAM misses,
        MSHR completions) lives in the kernel's event queue, so only the
        interconnect needs per-cycle stepping.

        ``None`` keeps the component on the run list (a grant is
        possible at ``cycle``); a later cycle promises no grant before
        it (the earliest queued request's bus-busy horizon); ``NEVER``
        (no queued request) sleeps until the activity listener fires.
        Busy cycles elided while asleep are recovered by
        :meth:`settle_busy`.
        """
        horizon = self.interconnect.grant_horizon(cycle)
        if horizon is None:
            return NEVER
        if horizon <= cycle:
            return None
        return horizon

    def settle_busy(self, upto: int) -> int:
        """Batch-charge busy cycles the sleeping component never stepped."""
        return self.interconnect.settle_busy(upto)

    def release(self) -> None:
        """Drop the callbacks into the cores (see ``System.release``)."""
        self._fill_callbacks = {}
        self.wake_listener = self.stall_listener = None


class SharedPortView:
    """Adapter giving one core the private-port request interface."""

    def __init__(self, group: SharedIcacheGroup, core_id: int) -> None:
        self._group = group
        self.core_id = core_id
        self.cache = group.cache

    def request(self, line_address: int, now: int) -> LineRequest:
        return self._group.request(line_address, now, self.core_id)
