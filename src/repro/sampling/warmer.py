"""Functional warming: one scalar walk, one LRU walk over raw tables.

Functional warming is pure bookkeeping — no cycles pass, no results are
read — so its cost is entirely Python dispatch. :func:`scalar_walk` is
the specification: it walks one thread's span through the core's own
structure methods — per line an iTLB translation and a line-buffer
lookup, L1I and L2 accesses on misses; per block a fetch-predictor
training step. :class:`BatchedWarmer` runs every core's span through
one of two implementations of that walk:

* a core with an LRU L1I and a stock
  :class:`~repro.branch.gshare.GsharePredictor` — every configuration
  the experiments sample — takes :func:`lru_walk`, which binds the
  structures' raw tables to locals once per span and inlines their
  updates. It replicates only the state-mutating updates (prediction
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
    "lru_walk",
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
    predictor training per block. It is the specification
    :func:`lru_walk` is tested against, and the path cores that walk
    does not model take.
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


def _lru_models(structures: CoreWarmStructures) -> bool:
    """True when :func:`lru_walk` models this core.

    Strict type checks: a subclass overriding ``update()`` or a
    non-LRU replacement policy must take the method-call walk to keep
    bit-identity. The instruction-side L2 is always LRU.
    """
    return (
        type(structures.predictor.direction) is GsharePredictor
        and type(structures.l1._policy) is LruPolicy
    )


def lru_walk(
    structures: CoreWarmStructures, records, start: int, end: int
) -> int:
    """Functionally warm ``records[start:end]``; returns blocks walked.

    :func:`scalar_walk` for a core with an LRU L1I and a stock gshare,
    over the structures' raw tables: per line the iTLB, the line
    buffers and the LRU L1I/L2 (order lists materialized lazily, as
    :class:`~repro.cache.replacement.LruPolicy` does); per block the
    gshare, loop-predictor and BTB updates. Every table is bound to a
    local once per span and the scalar structures' clocks, history and
    line-buffer entries are written back at the end.
    """
    buffers, predictor, itlb, l1, l2 = structures
    line_bytes = buffers.line_bytes
    line_mask = -line_bytes
    lb_entries = buffers._entries
    lb_lines = [entry.line for entry in lb_entries]
    lb_uses = [entry.last_use for entry in lb_entries]
    lb_clock = buffers._clock
    lb_range = range(len(lb_lines))
    lb_uses_get = lb_uses.__getitem__
    l1_tags = l1._tags
    l1_order = l1._policy._order
    l1_ways = l1.ways
    l1_shift = l1._line_shift
    l1_set_mask = l1._set_mask
    l1_seen = l1.stats._seen_lines
    l2_tags = l2._tags
    l2_order = l2._policy._order
    l2_ways = l2.ways
    l2_shift = l2._line_shift
    l2_set_mask = l2._set_mask
    l2_seen = l2.stats._seen_lines
    direction = predictor.direction
    g_counters = direction._counters
    g_history = direction._history
    g_mask = direction._mask
    g_shift = direction._index_shift
    loop = predictor.loop
    lp_tags = loop._tags
    lp_trips = loop._trips
    lp_currents = loop._currents
    lp_conf = loop._confidences
    lp_mask = loop._mask
    lp_shift = loop._index_shift
    btb = predictor.btb
    b_tags = btb._tags
    b_targets = btb._targets
    b_mask = btb._mask
    b_shift = btb._index_shift
    have_itlb = itlb is not None
    if have_itlb:
        t_map = itlb._translations
        t_map_get = t_map.__getitem__
        t_seen = itlb._seen_pages
        t_clock = itlb._clock
        t_shift = itlb._page_shift
        t_capacity = itlb.entries
    blocks = 0
    for record in records[start:end]:
        if type(record) is not BasicBlockRecord:
            continue
        blocks += 1
        address = record.address
        end_address = address + record.instruction_count * INSTRUCTION_BYTES
        line = address & line_mask
        while line < end_address:
            if have_itlb:
                page = line >> t_shift
                t_clock += 1
                if page in t_map:
                    t_map[page] = t_clock
                else:
                    t_seen.add(page)
                    if len(t_map) >= t_capacity:
                        del t_map[min(t_map, key=t_map_get)]
                    t_map[page] = t_clock
            lb_clock += 1
            for slot in lb_range:
                if lb_lines[slot] == line:
                    lb_uses[slot] = lb_clock
                    break
            else:
                victim = min(lb_range, key=lb_uses_get)
                lb_clock += 1
                lb_lines[victim] = line
                lb_uses[victim] = lb_clock
                set_index = (line >> l1_shift) & l1_set_mask
                row = l1_tags[set_index]
                try:
                    way = row.index(line)
                    hit = True
                except ValueError:
                    hit = False
                if hit:
                    order = l1_order[set_index]
                    if order is None:
                        order = list(range(l1_ways))
                        l1_order[set_index] = order
                    order.remove(way)
                    order.append(way)
                else:
                    try:
                        way = row.index(None)
                    except ValueError:
                        order = l1_order[set_index]
                        if order is None:
                            order = list(range(l1_ways))
                            l1_order[set_index] = order
                        way = order[0]
                    row[way] = line
                    order = l1_order[set_index]
                    if order is None:
                        order = list(range(l1_ways))
                        l1_order[set_index] = order
                    order.remove(way)
                    order.append(way)
                    l1_seen.add(line)
                    l2_set = (line >> l2_shift) & l2_set_mask
                    l2_row = l2_tags[l2_set]
                    try:
                        l2_way = l2_row.index(line)
                        l2_hit = True
                    except ValueError:
                        l2_hit = False
                    if not l2_hit:
                        try:
                            l2_way = l2_row.index(None)
                        except ValueError:
                            order = l2_order[l2_set]
                            if order is None:
                                order = list(range(l2_ways))
                                l2_order[l2_set] = order
                            l2_way = order[0]
                        l2_row[l2_way] = line
                        l2_seen.add(line)
                    order = l2_order[l2_set]
                    if order is None:
                        order = list(range(l2_ways))
                        l2_order[l2_set] = order
                    order.remove(l2_way)
                    order.append(l2_way)
            line += line_bytes
        branch = record.branch
        if branch is None:
            continue
        kind = branch.kind
        if kind is _CONDITIONAL:
            address = end_address - INSTRUCTION_BYTES
            taken = branch.taken
            gi = ((address >> g_shift) ^ g_history) & g_mask
            counter = g_counters[gi]
            if taken:
                if counter < 3:
                    g_counters[gi] = counter + 1
            elif counter > 0:
                g_counters[gi] = counter - 1
            g_history = ((g_history << 1) | (1 if taken else 0)) & g_mask
            tag = address >> lp_shift
            lp_index = tag & lp_mask
            if lp_tags[lp_index] != tag:
                if not taken:
                    lp_tags[lp_index] = tag
                    lp_trips[lp_index] = 0
                    lp_currents[lp_index] = 0
                    lp_conf[lp_index] = 0
            elif taken:
                lp_currents[lp_index] += 1
            else:
                observed = lp_currents[lp_index] + 1
                if observed == lp_trips[lp_index]:
                    confidence = lp_conf[lp_index]
                    if confidence < 3:
                        lp_conf[lp_index] = confidence + 1
                else:
                    lp_trips[lp_index] = observed
                    lp_conf[lp_index] = 0
                lp_currents[lp_index] = 0
        elif kind is _INDIRECT:
            address = end_address - INSTRUCTION_BYTES
            bi = (address >> b_shift) & b_mask
            b_tags[bi] = address
            b_targets[bi] = branch.target
    for slot, entry in enumerate(lb_entries):
        entry.line = lb_lines[slot]
        entry.last_use = lb_uses[slot]
    buffers._clock = lb_clock
    direction._history = g_history
    if have_itlb:
        itlb._clock = t_clock
    return blocks


class BatchedWarmer:
    """Walks intervals through a warming system's warm structures."""

    def __init__(self, system: System, traces: TraceSet) -> None:
        self.system = system
        self.traces = traces
        # Observability (construction-time grab; None when disabled).
        from repro.obs.recorder import metrics_registry

        self._metrics = metrics_registry()
        self._structures = core_warm_structures(system)
        self._walks = [
            lru_walk if _lru_models(structures) else scalar_walk
            for structures in self._structures
        ]

    def warm_interval(self, interval: Interval) -> int:
        """Functionally warm one interval; returns basic blocks walked."""
        blocks = 0
        for core_id, structures in enumerate(self._structures):
            start, end = interval.spans[core_id]
            if start == end:
                continue
            blocks += self._walks[core_id](
                structures, self.traces.threads[core_id].records, start, end
            )
        if self._metrics is not None:
            machine = self.system.machine_name
            self._metrics.counter("warming.intervals", machine=machine).inc()
            self._metrics.counter("warming.blocks", machine=machine).inc(
                blocks
            )
        return blocks
