"""Instruction TLB model (Section VII future-work extension).

The paper's conclusion proposes "sharing both the iTLB and branch
predictor" among the lean cores for the same cross-thread constructive
interference the shared I-cache exhibits. This module provides the iTLB:
a small fully-associative translation cache consulted once per fetched
line's page; a miss charges a fixed page-walk penalty before the fetch
can issue.

HPC instruction footprints span only a handful of pages, so private iTLB
miss rates are dominated by cold misses — exactly the component a shared
iTLB amortises across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import log2_int, require_positive, require_power_of_two


@dataclass
class ITlbStats:
    lookups: int = 0
    misses: int = 0
    #: Misses to pages never translated before (cold).
    compulsory_misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


class InstructionTlb:
    """Fully-associative iTLB with LRU replacement.

    Args:
        entries: translation slots (lean-core scale, e.g. 32).
        page_bytes: page size (4 KB).
        miss_penalty: cycles a page walk adds to the first fetch of an
            untranslated page.
    """

    def __init__(
        self,
        entries: int = 32,
        page_bytes: int = 4096,
        miss_penalty: int = 30,
    ) -> None:
        require_positive(entries, "entries")
        require_power_of_two(page_bytes, "page_bytes")
        require_positive(miss_penalty, "miss_penalty")
        self.entries = entries
        self.page_bytes = page_bytes
        self.miss_penalty = miss_penalty
        self._page_shift = log2_int(page_bytes)
        # page number -> last-use clock; LRU eviction on overflow.
        self._translations: dict[int, int] = {}
        self._clock = 0
        self._seen_pages: set[int] = set()
        self.stats = ITlbStats()

    def page_of(self, address: int) -> int:
        return address >> self._page_shift

    def translate(self, address: int) -> int:
        """Look up the page containing ``address``.

        Returns the extra cycles the fetch must wait: 0 on a hit, the
        page-walk penalty on a miss (the translation is installed).
        """
        # One lookup per fetched line: inline page_of (a shift by the
        # constant page mask captured at construction).
        page = address >> self._page_shift
        self._clock += 1
        self.stats.lookups += 1
        if page in self._translations:
            self._translations[page] = self._clock
            return 0
        self.stats.misses += 1
        if page not in self._seen_pages:
            self.stats.compulsory_misses += 1
            self._seen_pages.add(page)
        if len(self._translations) >= self.entries:
            victim = min(self._translations, key=self._translations.__getitem__)
            del self._translations[victim]
        self._translations[page] = self._clock
        return self.miss_penalty

    def resident_pages(self) -> set[int]:
        return set(self._translations)

    # -- warm-state checkpoints --------------------------------------------

    def warm_state(self) -> dict:
        """Snapshot: resident translations plus the pages ever seen (the
        compulsory-miss classifier, passed by reference)."""
        return {
            "clock": self._clock,
            "pages": [
                [page, last_use]
                for page, last_use in self._translations.items()
            ],
            "seen": self._seen_pages,
        }

    def load_warm_state(self, state) -> None:
        pages = state["pages"]
        if len(pages) > self.entries:
            raise ValueError(
                f"iTLB snapshot holds {len(pages)} translations but the "
                f"TLB has only {self.entries} entries"
            )
        self._translations = {page: last_use for page, last_use in pages}
        self._seen_pages = state["seen"]  # adopted by reference
        self._clock = int(state["clock"])
