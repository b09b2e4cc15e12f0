"""gshare predictor (Table I: 16 KB of 2-bit counters, 16-bit history)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import log2_int, require_power_of_two


@dataclass
class PredictorStats:
    """Conditional-branch prediction accounting."""

    lookups: int = 0
    mispredictions: int = 0


def saturating_update(counter: int, taken: bool, maximum: int = 3) -> int:
    """Advance a saturating counter (0..maximum) towards the outcome."""
    if taken:
        return min(maximum, counter + 1)
    return max(0, counter - 1)


class GsharePredictor:
    """Global-history predictor XOR-indexing a 2-bit counter table.

    A 16 KB budget holds 64 Ki 2-bit counters, indexed by
    ``PC xor global_history`` over 16 bits — the paper's configuration.
    """

    def __init__(self, size_bytes: int = 16 * 1024) -> None:
        require_power_of_two(size_bytes, "gshare size_bytes")
        entries = size_bytes * 4  # 2-bit counters, four per byte
        self.stats = PredictorStats()
        self._entries = entries
        self._mask = entries - 1
        self._history_bits = log2_int(entries)
        # One byte per counter, initially weakly taken (2): a 64 Ki
        # table is one flat buffer (one memset to build), not 64 Ki
        # list slots the cyclic garbage collector walks.
        self._counters = bytearray(b"\x02") * entries
        self._history = 0
        self._index_shift = 2

    @property
    def history_bits(self) -> int:
        return self._history_bits

    def _index(self, address: int) -> int:
        return ((address >> self._index_shift) ^ self._history) & self._mask

    def predict(self, address: int) -> bool:
        """Predicted direction for the branch at ``address``."""
        return self._counters[self._index(address)] >= 2

    def update(self, address: int, taken: bool) -> None:
        """Train with the resolved outcome."""
        index = self._index(address)
        self._counters[index] = saturating_update(self._counters[index], taken)
        self._history = ((self._history << 1) | int(taken)) & self._mask

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """Counter table + global history (table passed by reference)."""
        return {"counters": self._counters, "history": self._history}

    def load_warm_state(self, state) -> None:
        """Adopt a snapshot; its ``bytearray`` table is shared, not
        copied."""
        counters = state["counters"]
        if len(counters) != self._entries:
            raise ValueError(
                f"gshare snapshot has {len(counters)} counters, "
                f"expected {self._entries}"
            )
        self._counters = counters
        self._history = int(state["history"]) & self._mask
