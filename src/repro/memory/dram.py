"""DRAM device timing: Micron DDR3-1600 parameters (Table I, note 5).

Models per-bank row-buffer state and the first-order timing constraints
that matter for an instruction-fetch miss stream: row-hit vs row-miss
latency and per-bank occupancy. Timings are converted from DRAM-clock
values (tCK = 1.25 ns for DDR3-1600) into core cycles at the configured
core frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import log2_int, require_positive, require_power_of_two


@dataclass(frozen=True, slots=True)
class DramTimings:
    """DDR3-1600 (11-11-11) timing set, in DRAM clocks."""

    tck_ns: float = 1.25
    cl: int = 11  # CAS latency
    trcd: int = 11  # RAS-to-CAS delay
    trp: int = 11  # row precharge
    tburst: int = 4  # BL8: eight transfers, four clocks

    def row_hit_ns(self) -> float:
        return (self.cl + self.tburst) * self.tck_ns

    def row_miss_ns(self) -> float:
        return (self.trp + self.trcd + self.cl + self.tburst) * self.tck_ns


@dataclass
class DramStats:
    accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_wait_cycles: int = 0


@dataclass
class _Bank:
    open_row: int = -1
    busy_until: int = 0


class DramModel:
    """Unlimited-capacity DRAM with banked row buffers (Table I: size
    unlimited, standard DDR3-1600 timing parameters)."""

    def __init__(
        self,
        timings: DramTimings | None = None,
        core_ghz: float = 2.0,
        bank_count: int = 8,
        row_bytes: int = 8192,
        line_bytes: int = 64,
    ) -> None:
        require_positive(core_ghz, "core_ghz")
        require_power_of_two(bank_count, "bank_count")
        require_power_of_two(row_bytes, "row_bytes")
        self.timings = timings if timings is not None else DramTimings()
        cycles_per_ns = core_ghz
        self._row_hit_cycles = max(1, round(self.timings.row_hit_ns() * cycles_per_ns))
        self._row_miss_cycles = max(1, round(self.timings.row_miss_ns() * cycles_per_ns))
        self._row_shift = log2_int(row_bytes)
        self._bank_mask = bank_count - 1
        self._line_shift = log2_int(line_bytes)
        self._banks = [_Bank() for _ in range(bank_count)]
        self.stats = DramStats()

    @property
    def row_hit_cycles(self) -> int:
        return self._row_hit_cycles

    @property
    def row_miss_cycles(self) -> int:
        return self._row_miss_cycles

    def _bank_of(self, address: int) -> int:
        return (address >> self._line_shift) & self._bank_mask

    def _row_of(self, address: int) -> int:
        return address >> self._row_shift

    def access(self, address: int, now: int) -> int:
        """Schedule a line read; return its completion cycle.

        Requests to a busy bank serialise behind it (FCFS per bank).
        """
        bank = self._banks[self._bank_of(address)]
        row = self._row_of(address)
        start = max(now, bank.busy_until)
        self.stats.busy_wait_cycles += start - now
        if bank.open_row == row:
            service = self._row_hit_cycles
            self.stats.row_hits += 1
        else:
            service = self._row_miss_cycles
            self.stats.row_misses += 1
            bank.open_row = row
        self.stats.accesses += 1
        done = start + service
        bank.busy_until = done
        return done
