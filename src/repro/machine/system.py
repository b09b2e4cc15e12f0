"""Machine-neutral system assembly: cores, caches, buses and memory.

:class:`System` owns everything every machine model's build shares —
core assembly (front-end, back-end, predictors, line buffers, iTLB),
per-group cache hardware (shared or private I-cache, L2 hierarchy,
I-interconnect, MSHRs), the runtime coordinator, kernel component
registration with the sleep/wake wiring, L2 warm-up and result
collection. A machine model subclasses it with only its topology rule,
its per-core parameters and its registry name; the ACMP
(:mod:`repro.acmp`) and the symmetric CMP (:mod:`repro.scmp`) are both
thin wirings over this class.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

from repro.backend.backend import CommitEngine
from repro.branch.fetch_predictor import FetchPredictor
from repro.branch.gshare import GsharePredictor
from repro.branch.loop import LoopPredictor
from repro.cache.line_buffer import LineBufferSet
from repro.cache.set_assoc import SetAssociativeCache
from repro.engine import EventQueue
from repro.errors import ConfigurationError
from repro.frontend.engine import FetchEngine
from repro.frontend.itlb import InstructionTlb
from repro.frontend.ports import PrivateIcachePort, SharedIcacheGroup
from repro.interconnect.arbitration import WeightedArbiter, make_arbiter
from repro.interconnect.crossbar import Crossbar
from repro.interconnect.multibus import MultiBus
from repro.machine.components import CoreUnit, GroupInterconnectComponent
from repro.machine.config import BaseMachineConfig
from repro.machine.results import CacheGroupResult, CoreResult, SimulationResult
from repro.machine.topology import CacheGroup, Topology
from repro.memory.controller import FcfsBus, MemoryController
from repro.memory.dram import DramModel
from repro.memory.hierarchy import InstructionHierarchy
from repro.runtime.coordinator import RuntimeCoordinator
from repro.runtime.threads import ThreadContext
from repro.trace.records import SyncKind, SyncRecord, TraceRecord
from repro.trace.stream import TraceSet, TraceStream

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.warm import WarmState

__all__ = ["Core", "System", "scale_serial_ipc", "warm_shape_digest"]


@dataclass
class Core:
    """One assembled core: front-end + back-end + runtime context."""

    core_id: int
    context: ThreadContext
    frontend: FetchEngine
    backend: CommitEngine
    is_master: bool = False
    cache_group: CacheGroup | None = None


@dataclass
class _GroupHardware:
    """Hardware instantiated for one cache group."""

    group: CacheGroup
    cache: SetAssociativeCache
    hierarchy: InstructionHierarchy
    shared: SharedIcacheGroup | None = None  # None for private groups
    private_ports: dict[int, PrivateIcachePort] = field(default_factory=dict)


def scale_serial_ipc(
    records: list[TraceRecord], factor: float
) -> list[TraceRecord]:
    """Scale the IPC of a thread's *serial* sections by ``factor``.

    Serial sections are the record spans outside ``PARALLEL_START`` /
    ``PARALLEL_END`` brackets. Machine models whose core 0 is leaner
    than the machine the traces were measured on (the symmetric CMP's
    uniform lean cores vs the ACMP's big master) use this to replay the
    serial phases at the lean core's commit rate; parallel-section IPC,
    measured on lean cores already, is untouched.
    """
    from repro.trace.records import IpcRecord

    out: list[TraceRecord] = []
    in_parallel = 0
    for record in records:
        if isinstance(record, SyncRecord):
            if record.kind is SyncKind.PARALLEL_START:
                in_parallel += 1
            elif record.kind is SyncKind.PARALLEL_END:
                in_parallel = max(0, in_parallel - 1)
        elif isinstance(record, IpcRecord) and not in_parallel:
            record = IpcRecord(record.ipc * factor)
        out.append(record)
    return out


def warm_shape_digest(config: BaseMachineConfig, topology: Topology) -> str:
    """Digest of exactly the structural parameters warm state depends on.

    Warm microarchitectural state — cache tags and replacement order,
    line buffers, iTLB translations, predictor tables — is a function of
    the executed instruction stream and the *shapes* of those
    structures, never of timing parameters (latencies, bus widths,
    arbitration, queue depths). Two design points with equal digests
    therefore hold interchangeable warm state; the checkpoint store
    keys on this digest so a whole campaign's timing sweep shares one
    set of warming checkpoints per trace prefix.
    """
    shape = {
        "core_count": config.core_count,
        "groups": [
            [group.size_bytes, list(group.core_ids), bool(group.shared)]
            for group in topology.groups
        ],
        "icache": [
            config.icache_ways,
            config.icache_line_bytes,
            config.icache_policy,
        ],
        "line_buffers": config.line_buffers,
        "itlb": [
            bool(config.itlb_enabled),
            config.itlb_entries,
            bool(config.shared_itlb),
        ],
        "predictor": [
            config.gshare_bytes,
            config.loop_predictor_entries,
            bool(config.shared_fetch_predictor),
        ],
        "l2": [config.l2_bytes, config.l2_ways],
    }
    payload = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class System:
    """The complete simulated machine for one (config, trace set) pair.

    Subclass hooks (everything else is shared):

    * :attr:`machine_name` — the model's registry name, stamped into
      results.
    * :meth:`_build_topology` — partition the cores into cache groups.
    * :meth:`_mispredict_penalty` — per-core redirect penalty.
    * :meth:`_thread_records` — the trace records a core replays
      (override to transform, e.g. lean-core serial IPC scaling).
    """

    #: Registry name of the machine model; stamped into results.
    machine_name: ClassVar[str] = "machine"

    def __init__(self, config: BaseMachineConfig, traces: TraceSet) -> None:
        if traces.thread_count != config.core_count:
            raise ConfigurationError(
                f"trace set has {traces.thread_count} threads but the "
                f"{self.machine_name} machine has {config.core_count} cores"
            )
        self.config = config
        self.traces = traces
        self._warm_shape: str | None = None
        #: The cores each ICOUNT urgency closure reads (see
        #: :meth:`release`).
        self._urgency_cores: list[list[Core]] = []
        self.topology: Topology = self._build_topology()
        self.events = EventQueue()

        dram = DramModel(core_ghz=config.core_ghz)
        l2_bus = FcfsBus(
            width_bytes=config.l2_bus_width_bytes, latency=config.l2_bus_latency
        )
        self.memory_controller = MemoryController(dram=dram, bus=l2_bus)

        self.contexts = [
            ThreadContext(thread_id=i) for i in range(config.core_count)
        ]
        self.runtime = RuntimeCoordinator(self.contexts)

        self.cores: list[Core] = []
        self.group_hardware: list[_GroupHardware] = []
        #: Interconnect components registered with the kernel; the
        #: simulator aggregates their batched-busy counters after a run.
        self.interconnect_components: list[GroupInterconnectComponent] = []
        #: Per-core units registered with the kernel; the simulator
        #: aggregates their commit-replay counters after a run.
        self.core_units: list[CoreUnit] = []
        #: The kernel :meth:`register_components` wired, until
        #: :meth:`release` unwires it.
        self._kernel = None
        self._build()

    # -- machine hooks -----------------------------------------------------

    def _build_topology(self) -> Topology:
        """Partition the cores into cache groups (machine-specific)."""
        raise NotImplementedError

    def _mispredict_penalty(self, core_id: int) -> int:
        """Redirect penalty of one core (machine-specific)."""
        raise NotImplementedError

    def _thread_records(self, thread_id: int) -> list[TraceRecord]:
        """Records core ``thread_id`` replays (identity by default)."""
        return self.traces.threads[thread_id].records

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        config = self.config
        # Build cores first (they provide fill callbacks to the ports).
        for core_id in range(config.core_count):
            self.cores.append(self._build_core(core_id))
        # Then build per-group cache hardware and attach ports.
        for group in self.topology.groups:
            hardware = self._build_group(group)
            self.group_hardware.append(hardware)
            for core_id in group.core_ids:
                core = self.cores[core_id]
                core.cache_group = group
                if hardware.shared is not None:
                    core.frontend.port = hardware.shared.port_for(core_id)
                else:
                    core.frontend.port = hardware.private_ports[core_id]

    def _build_core(self, core_id: int) -> Core:
        config = self.config
        is_master = core_id == 0
        context = self.contexts[core_id]
        predictor = FetchPredictor(
            direction=GsharePredictor(config.gshare_bytes),
            loop=LoopPredictor(config.loop_predictor_entries),
        )
        line_buffers = LineBufferSet(
            count=config.line_buffers, line_bytes=config.icache_line_bytes
        )
        backend = CommitEngine(iq_capacity=config.iq_capacity)
        itlb = (
            InstructionTlb(config.itlb_entries, miss_penalty=config.itlb_miss_penalty)
            if config.itlb_enabled
            else None
        )
        frontend = FetchEngine(
            core_id=core_id,
            context=context,
            stream=TraceStream(self._thread_records(core_id)),
            predictor=predictor,
            line_buffers=line_buffers,
            port=None,  # attached by _build
            runtime=self.runtime,
            ftq_capacity=config.ftq_capacity,
            mispredict_penalty=self._mispredict_penalty(core_id),
            line_bytes=config.icache_line_bytes,
            itlb=itlb,
        )
        frontend.attach_backend(backend, iq_capacity=config.iq_capacity)
        return Core(
            core_id=core_id,
            context=context,
            frontend=frontend,
            backend=backend,
            is_master=is_master,
        )

    def _build_group(self, group: CacheGroup) -> _GroupHardware:
        config = self.config
        cache = SetAssociativeCache(
            group.size_bytes,
            config.icache_ways,
            config.icache_line_bytes,
            policy=config.icache_policy,
            name=f"icache[{group.index}]",
        )
        hierarchy = InstructionHierarchy(
            self.memory_controller,
            l2_size_bytes=config.l2_bytes,
            l2_ways=config.l2_ways,
            l2_latency=config.l2_latency,
            line_bytes=config.icache_line_bytes,
            name=f"l2[{group.index}]",
        )
        hardware = _GroupHardware(group=group, cache=cache, hierarchy=hierarchy)
        if group.shared:
            arbiter_factory = self._arbiter_factory(group)
            if config.interconnect == "crossbar":
                interconnect: MultiBus = Crossbar(
                    requester_count=len(group.core_ids),
                    bank_count=config.bus_count,
                    width_bytes=config.bus_width_bytes,
                    line_bytes=config.icache_line_bytes,
                    arbiter_factory=arbiter_factory,
                    name=f"i-crossbar[{group.index}]",
                )
            else:
                interconnect = MultiBus(
                    requester_count=len(group.core_ids),
                    bus_count=config.bus_count,
                    width_bytes=config.bus_width_bytes,
                    latency=config.bus_latency,
                    line_bytes=config.icache_line_bytes,
                    arbiter_factory=arbiter_factory,
                    name=f"i-interconnect[{group.index}]",
                )
            if config.shared_fetch_predictor:
                shared_predictor = FetchPredictor(
                    direction=GsharePredictor(config.gshare_bytes),
                    loop=LoopPredictor(config.loop_predictor_entries),
                )
                for core_id in group.core_ids:
                    self.cores[core_id].frontend.predictor = shared_predictor
            if config.shared_itlb:
                shared_itlb = InstructionTlb(
                    config.itlb_entries, miss_penalty=config.itlb_miss_penalty
                )
                for core_id in group.core_ids:
                    self.cores[core_id].frontend.itlb = shared_itlb
            fill_callbacks = {
                core_id: self.cores[core_id].frontend.on_fill
                for core_id in group.core_ids
            }
            hardware.shared = SharedIcacheGroup(
                core_ids=list(group.core_ids),
                cache=cache,
                hierarchy=hierarchy,
                interconnect=interconnect,
                scheduler=self.events.schedule,
                fill_callbacks=fill_callbacks,
                icache_latency=config.icache_latency,
                mshr_capacity=config.mshr_capacity,
            )
        else:
            (core_id,) = group.core_ids
            hardware.private_ports[core_id] = PrivateIcachePort(
                core_id=core_id,
                cache=cache,
                hierarchy=hierarchy,
                scheduler=self.events.schedule,
                on_fill=self.cores[core_id].frontend.on_fill,
                latency=config.icache_latency,
            )
        return hardware

    def _arbiter_factory(self, group: CacheGroup):
        """Arbitration policy for one shared group's buses.

        The ``icount`` policy implements the Section VII observation that
        "the arbitration policy on an I-bus becomes the fetching policy":
        like SMT ICOUNT, it grants the bus to the core whose instruction
        queue is emptiest (the most starved front-end).
        """
        config = self.config
        if config.arbitration != "icount":
            return lambda n: make_arbiter(config.arbitration, n)
        slot_cores = [self.cores[core_id] for core_id in group.core_ids]
        self._urgency_cores.append(slot_cores)

        def urgency(slot: int) -> float:
            return -float(slot_cores[slot].backend.iq_count)

        return lambda n: WeightedArbiter(n, urgency)

    # -- kernel wiring ---------------------------------------------------

    def register_components(self, kernel) -> None:
        """Build and register the machine's scheduler slots.

        The kernel must share :attr:`events`. Registration order — every
        core's front phase in core order, then the shared interconnects
        in group order, then every core's commit phase in core order —
        reproduces the stepped engine's per-cycle order of operations
        exactly, which keeps scheduled runs deterministic and
        bit-identical to ``cycle_skip=False`` reference runs.

        Also wires the wake plumbing: fill completions and barrier/lock
        hand-offs return sleeping cores to the run list, new bus
        requests wake idle interconnects, and in-flight request
        lifecycle transitions settle sleeping cores' batched stall
        attribution. The commit-replay lever additionally needs the
        ICOUNT observability gate: a core whose ``iq_count`` feeds a
        shared group's urgency-based arbitration must keep its queue
        count current every cycle, so it only opens constant-count
        pacing windows.
        """
        units = [CoreUnit(core, kernel) for core in self.cores]
        self.core_units = units
        self._kernel = kernel
        tracer = getattr(kernel, "tracer", None)
        if tracer is not None:
            # Timeline tracing: settled replay windows become spans on
            # the owning core's track (cycle domain; deterministic).
            from repro.obs.timeline import SIM_PID

            base = kernel._ts_base
            for unit in units:

                def trace_window(
                    kind: str,
                    start: int,
                    cycles: int,
                    *,
                    _core_id: int = unit.core.core_id,
                ) -> None:
                    tracer.complete(
                        f"replay:{kind}",
                        cat="replay",
                        ts=base + start,
                        dur=cycles,
                        pid=SIM_PID,
                        tid=1000 + _core_id,
                    )

                unit.trace_window = trace_window
                tracer.set_thread_name(
                    SIM_PID,
                    1000 + unit.core.core_id,
                    f"core{unit.core.core_id}:replay-windows",
                )
        if self.config.arbitration == "icount":
            for group in self.topology.groups:
                if not group.shared:
                    continue
                for core_id in group.core_ids:
                    units[core_id].iq_observed = True
        for unit in units:
            unit.front_slot = kernel.register(
                unit.frontend.step,
                on_wake=unit.front_woke,
                name=f"core{unit.core.core_id}.front",
            )
        for hardware in self.group_hardware:
            if hardware.shared is None:
                continue
            component = GroupInterconnectComponent(hardware.shared, kernel)
            component.slot = kernel.register(
                component.step,
                on_wake=component.woke,
                name=f"group{hardware.group.index}.interconnect",
            )
            self.interconnect_components.append(component)
            hardware.shared.activity_listener = (
                lambda slot=component.slot: kernel.wake(slot)
            )
        for unit in units:
            unit.commit_slot = kernel.register(
                unit.commit_step,
                on_wake=unit.commit_woke,
                name=f"core{unit.core.core_id}.commit",
            )

        def wake_core(core_id: int) -> None:
            units[core_id].wake()

        def settle_core(core_id: int, now: int) -> None:
            units[core_id].stall_transition(now)

        self.runtime.wake_listener = lambda thread_id, _now: wake_core(
            thread_id
        )
        for hardware in self.group_hardware:
            if hardware.shared is not None:
                hardware.shared.wake_listener = wake_core
                hardware.shared.stall_listener = settle_core
            else:
                for port in hardware.private_ports.values():
                    port.wake_listener = wake_core

    def release(self) -> None:
        """Unwire the machine so reference counting frees it.

        Assembly and kernel wiring make the machine cyclic: the ports'
        fill and wake listeners, the runtime's wake listener, queued
        events and the ICOUNT urgency closure lead back to the cores
        that own the ports, and the kernel's slots and hooks are bound
        methods of the units and of this system, which hold the kernel
        in turn. Left wired, a finished machine is garbage only the
        cyclic collector finds, and its collections (which walk every
        dead table) land in whichever layer allocates next. The owner
        calls this once results are collected; the system cannot run
        afterwards.
        """
        if self._kernel is not None:
            self._kernel.release()
            self._kernel = None
        self.runtime.wake_listener = None
        self.events.clear()
        for hardware in self.group_hardware:
            if hardware.shared is not None:
                hardware.shared.release()
            for port in hardware.private_ports.values():
                port.release()
        for cores in self._urgency_cores:
            cores.clear()

    def all_finished(self) -> bool:
        """True when every thread consumed its trace and drained.

        O(1): the front-end's FTQ fill is the only FINISHED transition,
        and it reports each one to the runtime coordinator.
        """
        return self.runtime.finished_count == len(self.cores)

    # -- warm-up ---------------------------------------------------------

    def warm_instruction_l2s(self) -> int:
        """Pre-fill every instruction-side L2 with the traces' code lines.

        The paper's runs execute >= 20 G instructions, so the 1 MB L2
        effectively always holds the (at most tens of KB) code footprint;
        on short synthetic traces, cold L2 misses would otherwise charge
        DRAM latency to first touches and distort execution-time ratios.
        I-caches are NOT warmed: their cold misses are part of the studied
        behaviour (Fig. 11).

        Returns the number of distinct lines installed per L2.
        """
        line_bytes = self.config.icache_line_bytes
        lines: set[int] = set()
        for thread in self.traces.threads:
            for block in thread.basic_blocks():
                first = block.address & ~(line_bytes - 1)
                for line in range(first, block.end_address, line_bytes):
                    lines.add(line)
        for hardware in self.group_hardware:
            for line in lines:
                hardware.hierarchy.l2.fill(line)
        return len(lines)

    # -- warm-state checkpoints --------------------------------------------

    def warm_shape(self) -> str:
        """This system's warm-shape digest (see :func:`warm_shape_digest`)."""
        if self._warm_shape is None:
            self._warm_shape = warm_shape_digest(self.config, self.topology)
        return self._warm_shape

    def capture_warm_state(self) -> "WarmState":
        """Snapshot the warm microarchitectural structures.

        Covers the state sampled simulation must carry across skipped
        regions — L1I/L2 tags and replacement state, line buffers, iTLB
        translations, branch-predictor tables — and none of the
        transient timing state (FTQ/IQ occupancy, in-flight requests),
        which drains at interval boundaries. Group-shared predictors
        and iTLBs are captured once and referenced by index from every
        member core. Large tables are captured by reference; see
        :mod:`repro.machine.warm` for the sharing contract.
        """
        from repro.machine.warm import WarmState

        state = WarmState(
            machine=self.machine_name,
            config_label=self.config.label(),
            shape=self.warm_shape(),
        )
        predictor_index: dict[int, int] = {}
        itlb_index: dict[int, int] = {}
        for core in self.cores:
            frontend = core.frontend
            pred_ref = predictor_index.get(id(frontend.predictor))
            if pred_ref is None:
                pred_ref = len(state.predictors)
                predictor_index[id(frontend.predictor)] = pred_ref
                state.predictors.append(frontend.predictor.warm_state())
            itlb_ref = None
            if frontend.itlb is not None:
                itlb_ref = itlb_index.get(id(frontend.itlb))
                if itlb_ref is None:
                    itlb_ref = len(state.itlbs)
                    itlb_index[id(frontend.itlb)] = itlb_ref
                    state.itlbs.append(frontend.itlb.warm_state())
            state.cores.append(
                {
                    "line_buffers": frontend.line_buffers.warm_state(),
                    "predictor": pred_ref,
                    "itlb": itlb_ref,
                }
            )
        for hardware in self.group_hardware:
            state.groups.append(
                {
                    "icache": hardware.cache.warm_state(),
                    "l2": hardware.hierarchy.l2.warm_state(),
                }
            )
        return state

    def restore_warm_state(self, state: "WarmState") -> None:
        """Install a warm-state snapshot captured on the same warm shape.

        The target must be a freshly-built (or otherwise identically
        shaped) system of the same machine model and warm-shape digest
        (:meth:`warm_shape`); structure shapes are validated as they
        are adopted.
        Shared predictors/iTLBs are restored once per unique structure,
        in the same discovery order capture used — identical wiring on
        both sides, since the configuration is identical.
        """
        state.check_compatible(
            self.machine_name, self.config.label(), self.warm_shape()
        )
        if len(state.cores) != len(self.cores) or len(state.groups) != len(
            self.group_hardware
        ):
            raise ConfigurationError(
                f"warm state shape ({len(state.cores)} cores, "
                f"{len(state.groups)} groups) does not match this system "
                f"({len(self.cores)} cores, {len(self.group_hardware)} "
                f"groups)"
            )
        try:
            predictor_seen: dict[int, int] = {}
            itlb_seen: dict[int, int] = {}
            for core, core_state in zip(self.cores, state.cores):
                frontend = core.frontend
                frontend.line_buffers.load_warm_state(
                    core_state["line_buffers"]
                )
                pred_ref = core_state["predictor"]
                if id(frontend.predictor) not in predictor_seen:
                    predictor_seen[id(frontend.predictor)] = pred_ref
                    frontend.predictor.load_warm_state(
                        state.predictors[pred_ref]
                    )
                elif predictor_seen[id(frontend.predictor)] != pred_ref:
                    raise ConfigurationError(
                        "warm state predictor sharing does not match the "
                        "system's wiring"
                    )
                itlb_ref = core_state["itlb"]
                if (frontend.itlb is None) != (itlb_ref is None):
                    raise ConfigurationError(
                        "warm state iTLB presence does not match the system"
                    )
                if frontend.itlb is not None:
                    if id(frontend.itlb) not in itlb_seen:
                        itlb_seen[id(frontend.itlb)] = itlb_ref
                        frontend.itlb.load_warm_state(state.itlbs[itlb_ref])
                    elif itlb_seen[id(frontend.itlb)] != itlb_ref:
                        raise ConfigurationError(
                            "warm state iTLB sharing does not match the "
                            "system's wiring"
                        )
            for hardware, group_state in zip(
                self.group_hardware, state.groups
            ):
                hardware.cache.load_warm_state(group_state["icache"])
                hardware.hierarchy.l2.load_warm_state(group_state["l2"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise ConfigurationError(
                f"warm state does not fit this system: {exc}"
            ) from exc

    # -- result collection --------------------------------------------------

    def collect_results(self, cycles: int) -> SimulationResult:
        result = SimulationResult(
            benchmark=self.traces.benchmark,
            config_label=self.config.label(),
            cycles=cycles,
            machine=self.machine_name,
        )
        seen_predictors: set[int] = set()
        seen_itlbs: set[int] = set()
        for core in self.cores:
            lb_stats = core.frontend.line_buffers.stats
            predictor = core.frontend.predictor
            # With a shared fetch predictor, report its (group-level)
            # counters once — on the first member — to avoid multiplying
            # them in per-cluster aggregations.
            if id(predictor) in seen_predictors:
                predictor_lookups = 0
                predictor_mispredictions = 0
            else:
                seen_predictors.add(id(predictor))
                predictor_lookups = predictor.stats.overall_lookups
                predictor_mispredictions = predictor.stats.overall_mispredictions
            # Shared iTLBs follow the same rule: group-level counters are
            # attributed to the first member core, never multiplied.
            itlb = core.frontend.itlb
            if itlb is None or id(itlb) in seen_itlbs:
                itlb_lookups = 0
                itlb_misses = 0
            else:
                seen_itlbs.add(id(itlb))
                itlb_lookups = itlb.stats.lookups
                itlb_misses = itlb.stats.misses
            result.cores.append(
                CoreResult(
                    core_id=core.core_id,
                    committed=core.backend.stats.committed,
                    base_cycles=core.backend.stats.base_cycles,
                    stall_cycles=dict(core.backend.stats.stall_cycles),
                    blocks_fetched=core.frontend.stats.blocks_fetched,
                    redirects=core.frontend.stats.redirects,
                    line_requests=lb_stats.line_requests,
                    buffer_hits=lb_stats.buffer_hits,
                    cache_fetches=lb_stats.cache_fetches,
                    branch_lookups=predictor_lookups,
                    branch_mispredictions=predictor_mispredictions,
                    sync_block_cycles=core.context.block_cycles,
                    itlb_lookups=itlb_lookups,
                    itlb_misses=itlb_misses,
                )
            )
        for hardware in self.group_hardware:
            stats = hardware.cache.stats
            l2_stats = hardware.hierarchy.l2.stats
            if hardware.shared is not None:
                # A transfer still draining when the run ends was never
                # stepped past the final cycle: settle its batched busy
                # accounting exactly where a stepped run stopped.
                hardware.shared.settle_busy(cycles)
                bus_tx = hardware.shared.interconnect.total_transactions()
                bus_wait = hardware.shared.interconnect.total_wait_cycles()
                bus_busy = sum(
                    bus.stats.busy_cycles
                    for bus in hardware.shared.interconnect.buses
                )
                merges = hardware.shared.mshrs.stats.merges
            else:
                bus_tx = bus_wait = bus_busy = merges = 0
            result.cache_groups.append(
                CacheGroupResult(
                    index=hardware.group.index,
                    core_ids=hardware.group.core_ids,
                    size_bytes=hardware.group.size_bytes,
                    accesses=stats.accesses,
                    hits=stats.hits,
                    misses=stats.misses,
                    compulsory_misses=stats.compulsory_misses,
                    mshr_merges=merges,
                    l2_accesses=l2_stats.accesses,
                    l2_misses=l2_stats.misses,
                    bus_transactions=bus_tx,
                    bus_wait_cycles=bus_wait,
                    bus_busy_cycles=bus_busy,
                )
            )
        result.dram_accesses = self.memory_controller.dram.stats.accesses
        result.lock_hand_offs = self.runtime.lock_hand_offs
        return result
