"""Replacement policies for set-associative caches.

The paper's configuration uses LRU (Table I and Fig. 3 caption); the other
policies support the replacement-policy ablation benches.
"""

from __future__ import annotations

import abc
from random import Random

from repro.errors import ConfigurationError
from repro.utils import require_positive


class ReplacementPolicy(abc.ABC):
    """Per-cache replacement state. One instance serves all sets."""

    #: The policy's :func:`make_policy` name; warm-state snapshots carry
    #: it so replacement state never restores under another policy.
    name = ""

    def __init__(self, set_count: int, ways: int) -> None:
        require_positive(set_count, "set_count")
        require_positive(ways, "ways")
        self.set_count = set_count
        self.ways = ways

    @abc.abstractmethod
    def on_access(self, set_index: int, way: int) -> None:
        """Update state after a hit on ``way`` of ``set_index``."""

    @abc.abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Update state after a fill into ``way`` of ``set_index``."""

    @abc.abstractmethod
    def victim(self, set_index: int) -> int:
        """Choose the way to evict from a full set."""

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> object | None:
        """JSON-ready snapshot of the replacement state, or ``None``.

        Policies without snapshot support (e.g. the seeded random
        policy) return ``None``; a restored cache then starts with
        fresh replacement state. Mutable payloads are passed by
        reference — :meth:`load_warm_state` adopts, it does not copy.
        """
        return None

    def load_warm_state(self, state: object | None) -> None:
        """Adopt a :meth:`warm_state` snapshot (``None`` is a no-op)."""
        if state is not None:
            raise ValueError(
                f"{type(self).__name__} has no warm state to restore"
            )


class LruPolicy(ReplacementPolicy):
    """True least-recently-used replacement (the paper's policy).

    Per-set recency order lists are allocated on first touch: an
    untouched set's order is way order (``None`` placeholder), which
    keeps constructing a large cache cheap — sampled simulation builds
    a fresh system per measurement interval, and megabyte-scale L2s
    would otherwise pay for thousands of order lists they immediately
    discard to a warm-state restore.
    """

    name = "lru"

    def __init__(self, set_count: int, ways: int) -> None:
        super().__init__(set_count, ways)
        # Recency order per set: index 0 is least recently used; None
        # means never touched (way order).
        self._order: list[list[int] | None] = [None] * set_count

    def _set_order(self, set_index: int) -> list[int]:
        order = self._order[set_index]
        if order is None:
            order = list(range(self.ways))
            self._order[set_index] = order
        return order

    def on_access(self, set_index: int, way: int) -> None:
        order = self._set_order(set_index)
        order.remove(way)
        order.append(way)

    def on_fill(self, set_index: int, way: int) -> None:
        self.on_access(set_index, way)

    def victim(self, set_index: int) -> int:
        return self._set_order(set_index)[0]

    def warm_state(self) -> list[list[int] | None]:
        return self._order

    def load_warm_state(self, state) -> None:
        if len(state) != self.set_count:
            raise ValueError("LRU snapshot shape does not match the cache")
        self._order = state


class FifoPolicy(ReplacementPolicy):
    """First-in first-out: evicts the oldest fill, ignores hits."""

    name = "fifo"

    def __init__(self, set_count: int, ways: int) -> None:
        super().__init__(set_count, ways)
        self._next_victim = [0] * set_count

    def on_access(self, set_index: int, way: int) -> None:
        pass  # FIFO ignores reference order

    def on_fill(self, set_index: int, way: int) -> None:
        if way == self._next_victim[set_index]:
            self._next_victim[set_index] = (way + 1) % self.ways

    def victim(self, set_index: int) -> int:
        return self._next_victim[set_index]

    def warm_state(self) -> list[int]:
        return self._next_victim

    def load_warm_state(self, state) -> None:
        if len(state) != self.set_count:
            raise ValueError("FIFO snapshot shape does not match the cache")
        self._next_victim = state


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for reproducibility)."""

    name = "random"

    def __init__(self, set_count: int, ways: int, seed: int = 0) -> None:
        super().__init__(set_count, ways)
        self._rng = Random(seed)

    def on_access(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def victim(self, set_index: int) -> int:
        return self._rng.randrange(self.ways)


class TreePlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU, the common hardware approximation of LRU.

    Requires a power-of-two way count; maintains ``ways - 1`` tree bits per
    set where each bit points towards the pseudo-least-recently-used half.
    """

    name = "plru"

    def __init__(self, set_count: int, ways: int) -> None:
        super().__init__(set_count, ways)
        if ways & (ways - 1):
            raise ConfigurationError(f"tree PLRU needs power-of-two ways, got {ways}")
        self._bits = [[0] * (ways - 1) for _ in range(set_count)]

    def _touch(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            if way < mid:
                bits[node] = 1  # point away: towards the upper half
                node = 2 * node + 1
                high = mid
            else:
                bits[node] = 0  # point towards the lower half
                node = 2 * node + 2
                low = mid
        del bits  # single exit; bits mutated in place

    def on_access(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def victim(self, set_index: int) -> int:
        # Bit semantics: 1 points the victim to the upper half (set when the
        # lower half was touched), 0 to the lower half. Child indexing must
        # mirror _touch: left child (2n+1) covers the lower half, right
        # child (2n+2) the upper half.
        bits = self._bits[set_index]
        node = 0
        low, high = 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            if bits[node]:
                node = 2 * node + 2
                low = mid
            else:
                node = 2 * node + 1
                high = mid
        return low

    def warm_state(self) -> list[list[int]]:
        return self._bits

    def load_warm_state(self, state) -> None:
        if len(state) != self.set_count or any(
            len(bits) != self.ways - 1 for bits in state
        ):
            raise ValueError("PLRU snapshot shape does not match the cache")
        self._bits = state


_POLICIES = {
    policy.name: policy
    for policy in (LruPolicy, FifoPolicy, RandomPolicy, TreePlruPolicy)
}


def make_policy(name: str, set_count: int, ways: int) -> ReplacementPolicy:
    """Build a replacement policy by name (``lru``/``fifo``/``random``/``plru``)."""
    try:
        factory = _POLICIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
    return factory(set_count, ways)
