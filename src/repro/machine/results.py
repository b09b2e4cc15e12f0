"""Machine-neutral simulation result records and derived metrics.

Every machine model produces the same result shape — per-core counters,
per-cache-group counters and whole-machine totals — tagged with the
model's name so serialized payloads from different machines cannot be
confused. Core 0 always runs the master thread; the ``worker_*``
aggregations therefore mean "every core but the one running the master
thread" on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.backend import STALL_CAUSES


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    core_id: int
    committed: int
    base_cycles: int
    stall_cycles: dict[str, int]
    blocks_fetched: int
    redirects: int
    line_requests: int
    buffer_hits: int
    cache_fetches: int
    branch_lookups: int
    branch_mispredictions: int
    sync_block_cycles: int
    #: iTLB counters; group-shared iTLBs report once, on the first
    #: member core (the same dedupe rule as shared fetch predictors).
    itlb_lookups: int = 0
    itlb_misses: int = 0

    @property
    def access_ratio(self) -> float:
        """Lines fetched from the I-cache / total line requests (Fig. 9)."""
        if self.line_requests == 0:
            return 0.0
        return self.cache_fetches / self.line_requests

    @property
    def branch_mpki(self) -> float:
        if self.committed == 0:
            return 0.0
        return self.branch_mispredictions * 1000.0 / self.committed

    @property
    def total_stalls(self) -> int:
        return sum(self.stall_cycles.values())


@dataclass
class CacheGroupResult:
    """Per-I-cache outcome (one per cache group)."""

    index: int
    core_ids: tuple[int, ...]
    size_bytes: int
    accesses: int
    hits: int
    misses: int
    compulsory_misses: int
    mshr_merges: int
    l2_accesses: int
    l2_misses: int
    bus_transactions: int
    bus_wait_cycles: int
    bus_busy_cycles: int

    @property
    def shared(self) -> bool:
        return len(self.core_ids) > 1

    @property
    def non_compulsory_misses(self) -> int:
        return self.misses - self.compulsory_misses


@dataclass
class SimulationResult:
    """Outcome of one full machine simulation run."""

    benchmark: str
    config_label: str
    cycles: int
    cores: list[CoreResult] = field(default_factory=list)
    cache_groups: list[CacheGroupResult] = field(default_factory=list)
    dram_accesses: int = 0
    lock_hand_offs: int = 0
    #: Registry name of the machine model that produced this result.
    machine: str = "acmp"
    #: Sampled-simulation metadata (``None`` for full detailed runs):
    #: the plan spec, coverage, measured/total instruction counts and
    #: per-metric relative sampling-error estimates. Attached by
    #: :mod:`repro.sampling`; every counter in a sampled result is an
    #: extrapolation whose confidence this payload quantifies.
    sampling: dict | None = None
    #: Serialized :class:`repro.obs.metrics.MetricsRegistry` payload
    #: (``None`` unless recording was enabled for the run): labelled
    #: ``kernel.*`` / ``sampling.*`` / ``phase.*`` metrics. Outside the
    #: bit-identity contract — equivalence comparisons ignore it, since
    #: its labels (engine, backend) and wall timings legitimately differ
    #: between runs that are otherwise identical.
    metrics: list | None = field(default=None, compare=False, repr=False)

    # -- instruction counts -------------------------------------------------

    @property
    def total_committed(self) -> int:
        return sum(core.committed for core in self.cores)

    @property
    def worker_committed(self) -> int:
        return sum(core.committed for core in self.cores[1:])

    # -- I-cache metrics -----------------------------------------------------

    def worker_icache_misses(self) -> int:
        """Total misses of the I-caches serving worker cores."""
        return sum(
            group.misses
            for group in self.cache_groups
            if any(core_id != 0 for core_id in group.core_ids)
        )

    def worker_icache_mpki(self) -> float:
        """Worker-side MPKI (Fig. 11's quantity)."""
        committed = self.worker_committed
        if committed == 0:
            return 0.0
        return self.worker_icache_misses() * 1000.0 / committed

    def worker_access_ratio(self) -> float:
        """Mean worker I-cache access ratio (Fig. 9's quantity)."""
        workers = self.cores[1:]
        requests = sum(core.line_requests for core in workers)
        fetches = sum(core.cache_fetches for core in workers)
        if requests == 0:
            return 0.0
        return fetches / requests

    # -- CPI stack (Fig. 8) ----------------------------------------------------

    def stall_breakdown(self) -> dict[str, int]:
        """Summed stall cycles across worker cores by cause."""
        totals = {cause: 0 for cause in STALL_CAUSES}
        for core in self.cores[1:]:
            for cause, cycles in core.stall_cycles.items():
                totals[cause] = totals.get(cause, 0) + cycles
        return totals

    def cpi_stack(self, include_master: bool = False) -> dict[str, float]:
        """Per-committed-instruction cycle breakdown.

        Components: ``base`` plus each stall cause, expressed as cycles
        per instruction over the selected cores.
        """
        cores = self.cores if include_master else self.cores[1:]
        committed = sum(core.committed for core in cores)
        if committed == 0:
            return {}
        stack = {"base": sum(core.base_cycles for core in cores) / committed}
        for cause in STALL_CAUSES:
            cycles = sum(core.stall_cycles.get(cause, 0) for core in cores)
            stack[cause] = cycles / committed
        return stack

    # -- interconnect -----------------------------------------------------------

    def total_bus_wait_cycles(self) -> int:
        return sum(group.bus_wait_cycles for group in self.cache_groups)
