"""Set-associative cache state (timing lives in the memory/ACMP layers).

The same class backs the private I-caches, the shared I-cache and the L2s
of Fig. 5; it maintains tags and replacement state and reports hits,
misses and evictions. Latency and bandwidth are modelled where they arise:
in the cache port, the interconnect and the memory hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError
from repro.utils import log2_int, require_power_of_two


#: The row of a set that holds no line: every way misses.
_NO_ROW = ()


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    line_address: int
    victim_line: int | None = None  # line evicted by the fill, if any


class SetAssociativeCache:
    """A classic set-associative cache over line addresses.

    Args:
        size_bytes: total capacity.
        ways: associativity.
        line_bytes: cache line size.
        policy: replacement policy name (default the paper's LRU).
        name: label used in diagnostics and reports.

    Tags are held per *filled* set: ``_tags`` maps a set index to that
    set's valid lines in way order. A set fills its first free way and
    drops its lines only all at once (:meth:`invalidate_all`), so its
    first free way is the row's length and a set with no line has no
    row. A fresh cache, and the copy or decode of a mostly empty one,
    costs nothing per empty set.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        policy: str = "lru",
        name: str = "cache",
    ) -> None:
        require_power_of_two(size_bytes, "size_bytes")
        require_power_of_two(line_bytes, "line_bytes")
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")
        lines = size_bytes // line_bytes
        if lines < ways or lines % ways:
            raise ConfigurationError(
                f"{size_bytes}B / {line_bytes}B lines not divisible into {ways} ways"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.set_count = lines // ways
        self._line_shift = log2_int(line_bytes)
        self._set_mask = self.set_count - 1
        # Precomputed at construction so the hot lookup paths do one
        # mask instead of a shift pair (addresses are non-negative, so
        # ``address & -line_bytes`` equals the shift-down/shift-up).
        self._line_mask = -line_bytes
        require_power_of_two(self.set_count, "set count")
        # tags[set][way] holds the line address; ways past a row's end
        # (and sets without a row) are invalid.
        self._tags: dict[int, list[int]] = {}
        self._policy: ReplacementPolicy = make_policy(policy, self.set_count, ways)
        self.stats = CacheStats()

    def line_address(self, address: int) -> int:
        """Line-aligned address containing ``address``."""
        return address & self._line_mask

    def set_index(self, address: int) -> int:
        return (address >> self._line_shift) & self._set_mask

    def probe(self, address: int) -> bool:
        """Check residency without updating replacement state or stats."""
        line = address & self._line_mask
        return line in self._tags.get(
            (line >> self._line_shift) & self._set_mask, _NO_ROW
        )

    def lookup(self, address: int) -> bool:
        """Timing-path access: update stats/recency but do NOT fill on miss.

        The cycle-level model fills the line only when the refill actually
        arrives (via :meth:`fill`), so that other cores' accesses in the
        miss window behave correctly.
        """
        line = address & self._line_mask
        set_index = (line >> self._line_shift) & self._set_mask
        try:
            way = self._tags.get(set_index, _NO_ROW).index(line)
        except ValueError:
            way = -1
        if way < 0:
            self.stats.record_miss(line)
            return False
        self._policy.on_access(set_index, way)
        self.stats.record_hit()
        return True

    def access(self, address: int) -> AccessResult:
        """Perform a load access; on a miss, fill the line.

        Returns:
            AccessResult with hit flag and any evicted victim line.
        """
        line = address & self._line_mask
        set_index = (line >> self._line_shift) & self._set_mask
        try:
            way = self._tags.get(set_index, _NO_ROW).index(line)
        except ValueError:
            way = -1
        if way >= 0:
            self._policy.on_access(set_index, way)
            self.stats.record_hit()
            return AccessResult(hit=True, line_address=line)
        victim = self._fill(set_index, line)
        self.stats.record_miss(line)
        return AccessResult(hit=False, line_address=line, victim_line=victim)

    def fill(self, address: int) -> int | None:
        """Install a line without counting an access (e.g. a prefetch fill).

        Returns the evicted line address, or None.
        """
        line = address & self._line_mask
        set_index = (line >> self._line_shift) & self._set_mask
        if line in self._tags.get(set_index, _NO_ROW):
            return None
        return self._fill(set_index, line)

    def _fill(self, set_index: int, line: int) -> int | None:
        tags = self._tags.get(set_index)
        victim: int | None = None
        if tags is None:
            self._tags[set_index] = [line]
            way = 0
        elif len(tags) < self.ways:
            way = len(tags)
            tags.append(line)
        else:
            way = self._policy.victim(set_index)
            victim = tags[way]
            tags[way] = line
            self.stats.record_eviction()
        self._policy.on_fill(set_index, way)
        return victim

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """Geometry, the filled sets' tag rows, replacement state (named
        by its policy) and the compulsory-miss classifier (lines ever
        resident), the tables passed by reference.

        The seen-lines set rides along because it is warm state, not a
        counter: a restored cache that forgot which lines it ever held
        would misclassify every capacity/conflict miss of a
        measurement interval as compulsory (the Fig. 11 split). The
        snapshot and the cache share storage after a
        :meth:`load_warm_state`. An in-process hand-off that must not
        couple two caches goes through
        :meth:`repro.machine.warm.WarmState.copy` (C-level list and set
        copies).
        """
        return {
            "sets": self.set_count,
            "ways": self.ways,
            "tags": self._tags,
            "replacement": self._policy.name,
            "policy": self._policy.warm_state(),
            "seen": self.stats._seen_lines,
        }

    def load_warm_state(self, state) -> None:
        """Adopt a snapshot captured from an identically-shaped cache
        under the same replacement policy.

        The shape check costs one step per filled set: every row must
        sit at a set index below this cache's set count and hold at most
        ``ways`` lines.
        """
        sets, ways = self.set_count, self.ways
        tags = state["tags"]
        if any(
            not 0 <= index < sets or len(row) > ways
            for index, row in tags.items()
        ):
            raise ValueError(
                f"cache snapshot shape does not match {self!r}"
            )
        if state["replacement"] != self._policy.name:
            raise ValueError(
                f"cache snapshot holds {state['replacement']!r} "
                f"replacement state, {self!r} uses {self._policy.name!r}"
            )
        self._tags = tags
        self._policy.load_warm_state(state["policy"])
        self.stats._seen_lines = state["seen"]

    def invalidate_all(self) -> None:
        """Drop every line (replacement state is left as-is)."""
        self._tags.clear()

    def resident_lines(self) -> set[int]:
        """All currently resident line addresses (for inspection/tests)."""
        lines: set[int] = set()
        for tags in self._tags.values():
            lines.update(tags)
        return lines

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}B, "
            f"ways={self.ways}, line={self.line_bytes}B)"
        )
