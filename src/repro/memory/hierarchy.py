"""The instruction-side memory hierarchy behind each I-cache (Fig. 5).

An I-cache miss queries the local L2 (Table I: 1 MB, 32-way, 20-cycle
latency, 64 B lines); an L2 miss continues to DRAM through the shared
memory controller. The hierarchy returns completion *cycles* — the
cycle-stepped ACMP simulator turns them into line-buffer fills.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.set_assoc import SetAssociativeCache
from repro.memory.controller import MemoryController
from repro.utils import require_positive


@dataclass(frozen=True, slots=True)
class MissCompletion:
    """Result of sending one I-cache miss down the hierarchy."""

    completion_cycle: int
    l2_hit: bool


class InstructionHierarchy:
    """L2 + DRAM behind one I-cache (private or shared)."""

    def __init__(
        self,
        controller: MemoryController,
        l2_size_bytes: int = 1024 * 1024,
        l2_ways: int = 32,
        l2_latency: int = 20,
        line_bytes: int = 64,
        name: str = "l2",
    ) -> None:
        require_positive(l2_latency, "l2_latency")
        self.controller = controller
        self.l2_latency = l2_latency
        self.line_bytes = line_bytes
        self.l2 = SetAssociativeCache(
            l2_size_bytes,
            l2_ways,
            line_bytes,
            policy="lru",
            name=name,
        )

    def fetch_line(self, line_address: int, now: int) -> MissCompletion:
        """Resolve an I-cache miss; return the fill-completion cycle."""
        result = self.l2.access(line_address)
        if result.hit:
            return MissCompletion(completion_cycle=now + self.l2_latency, l2_hit=True)
        dram_done = self.controller.fetch_line(
            line_address, now + self.l2_latency, self.line_bytes
        )
        return MissCompletion(completion_cycle=dram_done, l2_hit=False)
