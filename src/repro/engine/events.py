"""The kernel's event queue for scheduled completions.

A min-heap of ``(cycle, seq, callback)`` entries. Components schedule
future completions (line-buffer fills, cache refills, bus re-queues);
the kernel drains everything due at the start of each simulated cycle.
The sequence number makes same-cycle delivery FIFO in scheduling order,
which keeps runs deterministic.

A callback may schedule further events, including at the cycle currently
being drained: :meth:`run_due` keeps popping until nothing at or before
``now`` remains, so same-cycle rescheduling is delivered within the same
drain.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable


class EventQueue:
    """Min-heap of (cycle, seq, callback) used for scheduled completions."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, cycle: int, callback: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, callback))

    def run_due(self, now: int) -> int:
        """Run every callback scheduled at or before ``now``."""
        ran = 0
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, _, callback = heapq.heappop(heap)
            callback()
            ran += 1
        return ran

    def clear(self) -> None:
        """Drop every pending callback."""
        self._heap.clear()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_cycle(self) -> int | None:
        return self._heap[0][0] if self._heap else None
