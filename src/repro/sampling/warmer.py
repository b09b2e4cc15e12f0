"""Functional warming: one scalar walk, one batched kernel call per span.

Functional warming is pure bookkeeping — no cycles pass, no results are
read — so its cost is entirely Python dispatch. :func:`scalar_walk` is
the specification: it walks one thread's span through the core's own
structure methods — per line an iTLB translation and a line-buffer
lookup, L1I and L2 accesses on misses; per block a fetch-predictor
training step. :class:`BatchedWarmer` runs every core's span through
one of two implementations of that walk:

* a core with an LRU L1I and a stock
  :class:`~repro.branch.gshare.GsharePredictor` — every configuration
  the experiments sample — encodes the span's basic blocks into flat
  columns (first line and line count; terminating branch kind, key,
  target and outcome) and warms them in one
  :func:`repro.kernels.warm_span` call over the structures' raw tables.
  The kernel replicates only the state-mutating updates (prediction
  reads and stats counters are not warm state), except the
  compulsory-miss classifier sets (lines/pages ever seen), which are;
* every other core takes :func:`scalar_walk` itself.

Bit-identity with the scalar walk is a contract, enforced by tests: the
first-minimum victim tie-breaks, clock-bump counts and dict insertion
orders all replicate the scalar structures exactly. The warmer wraps a
*real* warming :class:`~repro.machine.system.System`, holding only
references to its structures and re-reading the inner tables each span,
so a ``restore_warm_state`` — which adopts new storage — never leaves
the warmer stale.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import kernels
from repro.branch.fetch_predictor import FetchPredictor
from repro.branch.gshare import GsharePredictor
from repro.cache.line_buffer import LineBufferSet, LookupState
from repro.cache.replacement import LruPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.frontend.itlb import InstructionTlb
from repro.machine.system import System
from repro.sampling.slicer import Interval
from repro.trace.records import (
    INSTRUCTION_BYTES,
    BasicBlockRecord,
    BranchKind,
)
from repro.trace.stream import TraceSet

__all__ = [
    "BatchedWarmer",
    "CoreWarmStructures",
    "core_warm_structures",
    "scalar_walk",
]

_CONDITIONAL = BranchKind.CONDITIONAL
_INDIRECT = BranchKind.INDIRECT


class CoreWarmStructures(NamedTuple):
    """The structures a warming walk touches for one core."""

    line_buffers: LineBufferSet
    predictor: FetchPredictor
    itlb: InstructionTlb | None
    l1: SetAssociativeCache
    l2: SetAssociativeCache


def core_warm_structures(system: System) -> list[CoreWarmStructures]:
    """Each core's warm structures, in core order.

    Only the structure *objects* are bound; their inner tables must be
    re-read on every walk, because restores adopt snapshot storage.
    """
    hardware_by_group = {
        id(hardware.group): hardware for hardware in system.group_hardware
    }
    structures = []
    for core in system.cores:
        frontend = core.frontend
        hardware = hardware_by_group[id(core.cache_group)]
        structures.append(
            CoreWarmStructures(
                frontend.line_buffers,
                frontend.predictor,
                frontend.itlb,
                hardware.cache,
                hardware.hierarchy.l2,
            )
        )
    return structures


def scalar_walk(
    structures: CoreWarmStructures, records, start: int, end: int
) -> int:
    """Functionally warm ``records[start:end]``; returns blocks walked.

    The scalar reference walk of one thread's span through its core's
    front-end warm structures and cache group — iTLB translation and
    line-buffer lookup per line, L1I and L2 fills on misses, fetch
    predictor training per block. It is the specification the batched
    kernel path is tested against, and the path cores the kernel does
    not model take.
    """
    buffers, predictor, itlb, l1, l2 = structures
    line_bytes = buffers.line_bytes
    line_mask = -line_bytes
    blocks = 0
    for record in records[start:end]:
        if type(record) is not BasicBlockRecord:
            continue
        blocks += 1
        line = record.address & line_mask
        end_address = record.end_address
        while line < end_address:
            if itlb is not None:
                itlb.translate(line)
            if buffers.lookup(line, count=False) is LookupState.MISS:
                buffers.allocate(line)
                buffers.fill(line)
                if not l1.access(line).hit:
                    l2.access(line)
            line += line_bytes
        predictor.resolve(record.branch_address, record.branch)
    return blocks


def _kernel_models(structures: CoreWarmStructures) -> bool:
    """True when :func:`repro.kernels.warm_span` models this core.

    Strict type checks: a subclass overriding ``update()`` or a
    non-LRU replacement policy must take the method-call walk to keep
    bit-identity. The instruction-side L2 is always LRU.
    """
    return (
        type(structures.predictor.direction) is GsharePredictor
        and type(structures.l1._policy) is LruPolicy
    )


def _encode_span(records, start: int, end: int, line_bytes: int):
    """Flatten the basic blocks of ``records[start:end]`` to columns.

    Per block: the first line address and line count of its fetch walk,
    and its terminating branch as (kind, key, target, taken) with kind
    0 = trains nothing, 1 = conditional, 2 = indirect. The block's end
    and branch addresses are computed here rather than through the
    record's properties: this loop runs once per warmed block.
    """
    starts: list[int] = []
    counts: list[int] = []
    kinds: list[int] = []
    keys: list[int] = []
    targets: list[int] = []
    takens: list[int] = []
    add_start = starts.append
    add_count = counts.append
    add_kind = kinds.append
    add_key = keys.append
    add_target = targets.append
    add_taken = takens.append
    line_mask = -line_bytes
    for record in records[start:end]:
        if type(record) is not BasicBlockRecord:
            continue
        address = record.address
        end_address = address + record.instruction_count * INSTRUCTION_BYTES
        start_line = address & line_mask
        add_start(start_line)
        add_count((end_address - start_line + line_bytes - 1) // line_bytes)
        branch = record.branch
        kind = key = target = taken = 0
        if branch is not None:
            branch_kind = branch.kind
            if branch_kind is _CONDITIONAL:
                kind = 1
                key = end_address - INSTRUCTION_BYTES
                taken = 1 if branch.taken else 0
            elif branch_kind is _INDIRECT:
                kind = 2
                key = end_address - INSTRUCTION_BYTES
                target = branch.target
        add_kind(kind)
        add_key(key)
        add_target(target)
        add_taken(taken)
    return starts, counts, kinds, keys, targets, takens


class BatchedWarmer:
    """Walks intervals through a warming system's warm structures."""

    def __init__(self, system: System, traces: TraceSet) -> None:
        self.system = system
        self.traces = traces
        # Observability (construction-time grab; None when disabled).
        from repro.obs.recorder import metrics_registry

        self._metrics = metrics_registry()
        self._structures = core_warm_structures(system)
        self._use_kernel = [
            _kernel_models(structures) for structures in self._structures
        ]

    def warm_interval(self, interval: Interval) -> int:
        """Functionally warm one interval; returns basic blocks walked."""
        blocks = 0
        for core_id, structures in enumerate(self._structures):
            start, end = interval.spans[core_id]
            if start == end:
                continue
            records = self.traces.threads[core_id].records
            if self._use_kernel[core_id]:
                blocks += self._walk_kernel(structures, records, start, end)
            else:
                blocks += scalar_walk(structures, records, start, end)
        if self._metrics is not None:
            labels = {
                "machine": self.system.machine_name,
                "kernel_backend": kernels.backend_name(),
            }
            self._metrics.counter("warming.intervals", **labels).inc()
            self._metrics.counter("warming.blocks", **labels).inc(blocks)
        return blocks

    def _walk_kernel(self, structures, records, start, end) -> int:
        """Warm one span in a single kernel call over its encoding."""
        buffers, predictor, itlb, l1, l2 = structures
        line_bytes = buffers.line_bytes
        columns = _encode_span(records, start, end, line_bytes)
        lb_entries = buffers._entries
        lb_lines = [entry.line for entry in lb_entries]
        lb_uses = [entry.last_use for entry in lb_entries]
        direction = predictor.direction
        loop = predictor.loop
        btb = predictor.btb
        if itlb is not None:
            itlb_tables = (
                itlb._translations,
                itlb._seen_pages,
                itlb._clock,
                itlb._page_shift,
                itlb.entries,
            )
        else:
            itlb_tables = (None, None, 0, 0, 0)
        lb_clock, g_history, t_clock = kernels.warm_span(
            line_bytes,
            *columns,
            lb_lines,
            lb_uses,
            buffers._clock,
            l1._tags,
            l1._policy._order,
            l1.ways,
            l1._line_shift,
            l1._set_mask,
            l1.stats._seen_lines,
            l2._tags,
            l2._policy._order,
            l2.ways,
            l2._line_shift,
            l2._set_mask,
            l2.stats._seen_lines,
            direction._counters,
            direction._history,
            direction._mask,
            direction._index_shift,
            loop._tags,
            loop._trips,
            loop._currents,
            loop._confidences,
            loop._mask,
            loop._index_shift,
            btb._tags,
            btb._targets,
            btb._mask,
            btb._index_shift,
            *itlb_tables,
        )
        for slot, entry in enumerate(lb_entries):
            entry.line = lb_lines[slot]
            entry.last_use = lb_uses[slot]
        buffers._clock = lb_clock
        direction._history = g_history
        if itlb is not None:
            itlb._clock = t_clock
        return len(columns[0])
