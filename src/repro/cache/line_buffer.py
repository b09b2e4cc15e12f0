"""Line buffers: the per-core micro-cache / loop buffer of Section IV-A.

Each core front-end owns a small set of 64 B line buffers. A fetch request
whose line is already present (or in flight) reuses the buffer and never
reaches the I-cache, which is what keeps the shared-I-cache bus traffic low
for loopy HPC code (Fig. 9). Each buffer also acts as an outstanding-request
slot: with more line buffers the front-end can have more requests in flight.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.utils import require_positive, require_power_of_two


class LookupState(enum.Enum):
    """Result of probing the line-buffer set for a line."""

    HIT = "hit"  # line present and valid: no I-cache access needed
    PENDING = "pending"  # line already requested: wait, no new access
    MISS = "miss"  # line absent: must request from the I-cache


@dataclass
class LineBufferStats:
    """Fetch-side counters used for the Fig. 9 access-ratio metric."""

    line_requests: int = 0  # total lines the fetch engine needed
    buffer_hits: int = 0  # served by a valid line buffer
    pending_merges: int = 0  # merged into an in-flight request
    cache_fetches: int = 0  # issued to the I-cache

    @property
    def access_ratio(self) -> float:
        """Lines fetched from the I-cache / total line requests (Fig. 9)."""
        if self.line_requests == 0:
            return 0.0
        return self.cache_fetches / self.line_requests


@dataclass(slots=True)
class _Entry:
    line: int | None = None
    pending: bool = False
    last_use: int = 0


@dataclass
class LineBufferSet:
    """A small fully-associative set of line buffers with LRU reuse."""

    count: int
    line_bytes: int = 64
    _entries: list[_Entry] = field(init=False)
    _line_mask: int = field(init=False)
    _clock: int = field(init=False, default=0)
    stats: LineBufferStats = field(init=False)

    def __post_init__(self) -> None:
        require_positive(self.count, "line buffer count")
        require_power_of_two(self.line_bytes, "line_bytes")
        self._entries = [_Entry() for _ in range(self.count)]
        # -line_bytes == ~(line_bytes - 1) for powers of two; computed
        # once instead of on every probe/allocate/fill.
        self._line_mask = -self.line_bytes
        self.stats = LineBufferStats()

    def line_address(self, address: int) -> int:
        return address & self._line_mask

    def lookup(self, address: int, count: bool = True) -> LookupState:
        """Probe for the line containing ``address``.

        Args:
            count: account this probe as a fetch-side line request (the
                denominator of the Fig. 9 access ratio). Re-checks of a
                piece already counted must pass ``False`` so one fetched
                line counts exactly one request.
        """
        line = self.line_address(address)
        self._clock += 1
        if count:
            self.stats.line_requests += 1
        for entry in self._entries:
            if entry.line == line:
                entry.last_use = self._clock
                if entry.pending:
                    if count:
                        self.stats.pending_merges += 1
                    return LookupState.PENDING
                if count:
                    self.stats.buffer_hits += 1
                return LookupState.HIT
        return LookupState.MISS

    def allocate(self, address: int) -> bool:
        """Reserve a buffer for an I-cache request for ``address``'s line.

        Returns False when every buffer is pending (no free outstanding-
        request slot), which stalls the fetch engine.
        """
        line = self.line_address(address)
        victim: _Entry | None = None
        for entry in self._entries:
            if entry.pending:
                continue
            if victim is None or entry.last_use < victim.last_use:
                victim = entry
        if victim is None:
            return False
        self._clock += 1
        victim.line = line
        victim.pending = True
        victim.last_use = self._clock
        self.stats.cache_fetches += 1
        return True

    def fill(self, address: int) -> None:
        """Mark the pending buffer for ``address``'s line as valid."""
        line = self.line_address(address)
        for entry in self._entries:
            if entry.line == line and entry.pending:
                entry.pending = False
                return
        # A redirect may have discarded the pending entry; late fills for
        # lines no longer tracked are simply dropped.

    def discard_pending(self) -> int:
        """Drop all in-flight requests (branch-misprediction flush).

        Valid lines are retained — they still hold useful loop code.
        Returns the number of discarded requests.
        """
        discarded = 0
        for entry in self._entries:
            if entry.pending:
                entry.line = None
                entry.pending = False
                discarded += 1
        return discarded

    def pending_count(self) -> int:
        return sum(1 for entry in self._entries if entry.pending)

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """JSON-ready snapshot of the valid lines (pending requests are
        transient timing state and are not part of warm state)."""
        return {
            "clock": self._clock,
            "entries": [
                [entry.line, entry.last_use]
                for entry in self._entries
                if entry.line is not None and not entry.pending
            ],
        }

    def load_warm_state(self, state) -> None:
        entries = state["entries"]
        if len(entries) > self.count:
            raise ValueError(
                f"line-buffer snapshot holds {len(entries)} lines but the "
                f"set has only {self.count} buffers"
            )
        self._entries = [_Entry() for _ in range(self.count)]
        for slot, (line, last_use) in zip(self._entries, entries):
            slot.line = line
            slot.last_use = last_use
        self._clock = int(state["clock"])

    def valid_lines(self) -> set[int]:
        return {
            entry.line
            for entry in self._entries
            if entry.line is not None and not entry.pending
        }
