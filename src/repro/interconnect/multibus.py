"""Multi-bus interconnect: one bus per cache bank (Section VI-B).

"Instead of a single bus, we use a shared multi-banked I-cache so that each
bank now has its own bus connected to all worker cores" — requests for even
cache lines route through bus 0, odd lines through bus 1 (for two banks).
Doubling the buses halves the number of cores contending per bus at a 4x
interconnect area cost (Section VI-D), the trade-off of Figs. 10 and 12.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.interconnect.arbitration import Arbiter
from repro.interconnect.bus import Bus, BusRequest
from repro.utils import log2_int, require_power_of_two


class MultiBus:
    """A bank-interleaved set of buses presenting a single request API."""

    def __init__(
        self,
        requester_count: int,
        bus_count: int,
        width_bytes: int = 32,
        latency: int = 2,
        line_bytes: int = 64,
        arbiter_factory: Callable[[int], Arbiter] | None = None,
        name: str = "i-interconnect",
    ) -> None:
        require_power_of_two(bus_count, "bus_count")
        require_power_of_two(line_bytes, "line_bytes")
        self.name = name
        self.requester_count = requester_count
        self.line_bytes = line_bytes
        self._line_shift = log2_int(line_bytes)
        self._bank_mask = bus_count - 1
        self.buses = [
            Bus(
                requester_count,
                width_bytes=width_bytes,
                latency=latency,
                arbiter=arbiter_factory(requester_count) if arbiter_factory else None,
                name=f"{name}[{index}]",
            )
            for index in range(bus_count)
        ]

    @property
    def bus_count(self) -> int:
        return len(self.buses)

    @property
    def latency(self) -> int:
        return self.buses[0].latency

    def bank_of(self, address: int) -> int:
        """Bank (bus) index for an address: line-address interleaving."""
        return (address >> self._line_shift) & self._bank_mask

    def request(
        self,
        requester: int,
        address: int,
        now: int,
        payload_bytes: int = 64,
        meta: object = None,
    ) -> BusRequest:
        bus = self.buses[self.bank_of(address)]
        return bus.request(requester, address, now, payload_bytes, meta)

    def step(self, now: int) -> list[BusRequest]:
        """Advance every bus one cycle; return all grants of this cycle."""
        grants = []
        for bus in self.buses:
            granted = bus.step(now)
            if granted is not None:
                grants.append(granted)
        return grants

    def flush_requester(self, requester: int) -> int:
        return sum(bus.flush_requester(requester) for bus in self.buses)

    def grant_horizon(self, cycle: int) -> int | None:
        """Earliest cycle >= ``cycle`` at which any bus could grant.

        ``None`` when no bus has a queued request: in-flight transfers
        may still be draining, but their per-cycle busy accounting is
        recoverable in one step (:meth:`settle_busy`), so nothing
        observable happens until a new request arrives.
        """
        horizon: int | None = None
        for bus in self.buses:
            candidate = bus.grant_horizon(cycle)
            if candidate is not None and (horizon is None or candidate < horizon):
                horizon = candidate
        return horizon

    def settle_busy(self, upto: int) -> int:
        """Batch-charge every bus's elided busy cycles up to ``upto``."""
        return sum(bus.settle_busy(upto) for bus in self.buses)

    @property
    def pending_requests(self) -> int:
        return sum(bus.pending_requests for bus in self.buses)

    def total_transactions(self) -> int:
        return sum(bus.stats.transactions for bus in self.buses)

    def total_wait_cycles(self) -> int:
        return sum(bus.stats.wait_cycles for bus in self.buses)
