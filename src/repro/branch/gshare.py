"""gshare predictor (Table I: 16 KB of 2-bit counters, 16-bit history)."""

from __future__ import annotations

from repro.branch.base import DirectionPredictor, saturating_update
from repro.utils import log2_int, require_power_of_two


class GsharePredictor(DirectionPredictor):
    """Global-history predictor XOR-indexing a 2-bit counter table.

    A 16 KB budget holds 64 Ki 2-bit counters, indexed by
    ``PC xor global_history`` over 16 bits — the paper's configuration.
    """

    def __init__(self, size_bytes: int = 16 * 1024) -> None:
        super().__init__()
        require_power_of_two(size_bytes, "gshare size_bytes")
        entries = size_bytes * 4  # 2-bit counters, four per byte
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
        return self._counters[self._index(address)] >= 2

    def update(self, address: int, taken: bool) -> None:
        index = self._index(address)
        self._counters[index] = saturating_update(self._counters[index], taken)
        self._history = ((self._history << 1) | int(taken)) & self._mask

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """Counter table + global history (table passed by reference)."""
        return {"counters": self._counters, "history": self._history}

    def load_warm_state(self, state) -> None:
        """Adopt a snapshot; a ``bytearray`` table is shared, not copied.

        Any other sequence (the list :meth:`WarmState.from_dict
        <repro.machine.warm.WarmState.from_dict>` rebuilds) is converted
        once, which rejects counter values outside 0..255.
        """
        counters = state["counters"]
        if not isinstance(counters, bytearray):
            # iter(): bytearray(n) of a bare int would build n zeros.
            counters = bytearray(iter(counters))
        if len(counters) != self._entries:
            raise ValueError(
                f"gshare snapshot has {len(counters)} counters, "
                f"expected {self._entries}"
            )
        self._counters = counters
        self._history = int(state["history"]) & self._mask
