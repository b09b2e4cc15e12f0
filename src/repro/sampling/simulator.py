"""The sampled simulation driver: warm, measure, extrapolate.

:class:`SampledSimulator` runs one design point over one trace set under
a :class:`~repro.sampling.plan.SamplingPlan`:

* ``DETAIL`` intervals are materialised as standalone trace sets and run
  through the ordinary :class:`~repro.machine.simulator.SystemSimulator`
  on a freshly-built *hollow* system (no dense tables of its own) seeded
  with the warm state entering the interval, so the measurement
  machinery is exactly the full simulator's (both engines, both machine
  models).
* ``WARM`` intervals are *functionally warmed* on a long-lived warming
  system via :class:`~repro.sampling.warmer.BatchedWarmer` — state
  updates with no timing.
* ``SKIP`` intervals are fast-forwarded (no work at all).

Warming is **pure**: the state entering a detail interval is a function
of the trace prefix alone, never of any timing behaviour. The warming
machine functionally walks every non-``SKIP`` interval's span in trace
order — measurement intervals included — and each detail interval's
measurement run is seeded with the pure entry state. That purity is
what makes warm state *shareable*: an entry snapshot depends only on
the trace prefix and the structural shape of the warm structures
(:func:`repro.machine.system.warm_shape_digest`), so a persistent
:class:`~repro.sampling.checkpoints.CheckpointStore` can hand the same
checkpoints to every design point of a timing sweep and to resumed
shard hosts. A run whose checkpoints all hit never builds a warming
machine at all — the dominant cost of sampled simulation disappears.

Each measured interval pays a fixed startup transient (pipeline fill,
parallel-phase bring-up) that a contiguous full run pays only once; the
driver measures that constant once per run on a minimal probe trace and
subtracts it from every sampled interval's cycle count, so shrinking the
detail unit does not bias cycles upward.

The measured intervals extrapolate to a full-run
:class:`SimulationResult` *per stratum*: sampled counters scale by
their stratum's ``stratum_instructions / measured_instructions`` factor
(serial and parallel CPI differ by roughly the core count, so the
estimate never crosses strata), exhaustively-measured intervals enter
with weight 1, and the result's ``sampling`` payload records the plan,
the coverage, checkpoint hit/miss counters and per-metric 95 % relative
error estimates from the across-interval spread. A plan with ``skip =
0`` (coverage 1.0) short-circuits to the plain simulator and is
bit-identical to an unsampled run by construction.
"""

from __future__ import annotations

import time
from dataclasses import fields

from repro.errors import ConfigurationError, SimulationError
from repro.machine.config import BaseMachineConfig
from repro.machine.results import CacheGroupResult, CoreResult, SimulationResult
from repro.machine.simulator import SystemSimulator, simulate
from repro.machine.system import System, warm_shape_digest
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseTimer
from repro.obs.recorder import metrics_registry as _active_metrics
from repro.obs.recorder import tracer as _active_tracer
from repro.sampling.checkpoints import (
    CheckpointKey,
    Checkpointing,
    decode_state,
    encode_state,
    trace_fingerprint,
)
from repro.sampling.plan import SamplingPlan
from repro.sampling.slicer import (
    Interval,
    IntervalKind,
    interval_traceset,
    slice_traces,
)
from repro.sampling.warmer import BatchedWarmer
from repro.trace.records import (
    BasicBlockRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet

__all__ = ["SampledSimulator", "simulate_sampled"]

#: Per-process memo of measured startup transients: the probe is a pure
#: function of (machine, design point, trace content, engine flags), and
#: a campaign worker runs many sampled plans over the same few
#: identities.
_TRANSIENT_MEMO: dict[tuple, int] = {}
_TRANSIENT_MEMO_LIMIT = 256


def _transient_probe(traces: TraceSet, copies: int) -> TraceSet:
    """A minimal trace exposing the per-interval startup transient.

    Every materialised detail interval pays a fixed overhead a
    contiguous run pays once: parallel-phase bring-up, pipeline and
    fetch-queue fill, end-of-trace drain. The probe reproduces exactly
    that skeleton — one re-issued parallel phase, the thread's entry
    commit rate, ``copies`` repetitions of a representative basic block
    — measured with the same engine and flags as the intervals it
    corrects. Two probe sizes let the caller cancel the block's own
    steady-state cost (see :meth:`SampledSimulator._transient_cycles`).
    """
    threads = []
    for thread in traces.threads:
        records: list = [SyncRecord(SyncKind.PARALLEL_START, 0)]
        ipc = next(
            (r for r in thread.records if isinstance(r, IpcRecord)), None
        )
        if ipc is not None:
            records.append(IpcRecord(ipc.ipc))
        depth = 0
        for record in thread.records:
            if isinstance(record, SyncRecord):
                if record.kind is SyncKind.PARALLEL_START:
                    depth += 1
                elif record.kind is SyncKind.PARALLEL_END:
                    depth = max(0, depth - 1)
            elif isinstance(record, BasicBlockRecord) and depth > 0:
                records.extend([record] * copies)
                break
        records.append(SyncRecord(SyncKind.PARALLEL_END, 0))
        threads.append(
            ThreadTrace(thread_id=thread.thread_id, records=records)
        )
    return TraceSet(benchmark=traces.benchmark, threads=threads)


def _combine(
    weighted: list[tuple[SimulationResult, float]],
) -> SimulationResult:
    """Weighted sum of interval results into one extrapolated result.

    Exhaustively-measured intervals (the serial stratum) enter with
    weight 1.0; sampled intervals with their stratum's extrapolation
    factor. Every counter field of the result dataclasses is the
    rounded weighted sum — fields are enumerated through
    :func:`dataclasses.fields`, so a counter added to
    :class:`CoreResult` or :class:`CacheGroupResult` later is
    extrapolated automatically instead of silently defaulting to 0.
    """
    template = weighted[0][0]

    def combine_fields(cls, parts, identity: dict):
        """Weighted-sum every non-identity field of one dataclass."""
        kwargs = dict(identity)
        for field_info in fields(cls):
            name = field_info.name
            if name in kwargs:
                continue
            first = getattr(parts[0][0], name)
            if isinstance(first, dict):
                summed: dict[str, float] = {}
                for part, factor in parts:
                    for cause, value in getattr(part, name).items():
                        summed[cause] = summed.get(cause, 0.0) + value * factor
                kwargs[name] = {
                    cause: int(round(value))
                    for cause, value in summed.items()
                }
            else:
                kwargs[name] = int(
                    round(
                        sum(
                            getattr(part, name) * factor
                            for part, factor in parts
                        )
                    )
                )
        return cls(**kwargs)

    combined = SimulationResult(
        benchmark=template.benchmark,
        config_label=template.config_label,
        cycles=int(round(sum(r.cycles * f for r, f in weighted))),
        dram_accesses=int(
            round(sum(r.dram_accesses * f for r, f in weighted))
        ),
        lock_hand_offs=int(
            round(sum(r.lock_hand_offs * f for r, f in weighted))
        ),
        machine=template.machine,
    )
    for core_index, core in enumerate(template.cores):
        combined.cores.append(
            combine_fields(
                CoreResult,
                [(r.cores[core_index], f) for r, f in weighted],
                {"core_id": core.core_id},
            )
        )
    for group_index, group in enumerate(template.cache_groups):
        combined.cache_groups.append(
            combine_fields(
                CacheGroupResult,
                [(r.cache_groups[group_index], f) for r, f in weighted],
                {
                    "index": group.index,
                    "core_ids": group.core_ids,
                    "size_bytes": group.size_bytes,
                },
            )
        )
    return combined


def _relative_error(samples: list[float], floor: float = 0.0) -> float | None:
    """95 % relative error of the mean of ordered systematic samples.

    Uses the successive-difference variance estimator — the standard
    choice for systematic samples, where adjacent measurement intervals
    are adjacent in time: plain sample variance would count the
    *deliberate* phase-to-phase trend the schedule strides across as
    random scatter and wildly overstate the uncertainty. ``None`` when
    fewer than three intervals were measured (no usable spread
    information) or the metric's mean sits at/below ``floor`` (a
    relative error on ~zero is noise, not information).
    """
    n = len(samples)
    if n < 3:
        return None
    mean = sum(samples) / n
    if abs(mean) <= floor:
        return None
    successive = sum(
        (samples[i + 1] - samples[i]) ** 2 for i in range(n - 1)
    )
    variance_of_mean = successive / (2.0 * n * (n - 1))
    from repro.utils.stats import t95

    return abs(t95(n - 1) * variance_of_mean**0.5 / mean)


def _error_estimates(results: list[SimulationResult]) -> dict[str, float | None]:
    """Per-metric relative sampling error from the interval spread.

    ``results`` must be in trace order (the simulator measures
    intervals in order), which the successive-difference estimator
    relies on.
    """
    cpis = []
    icache_mpki = []
    branch_mpki = []
    for result in results:
        committed = result.total_committed
        if committed == 0:
            continue
        cpis.append(result.cycles / committed)
        icache_mpki.append(
            sum(group.misses for group in result.cache_groups)
            * 1000.0
            / committed
        )
        branch_mpki.append(
            sum(core.branch_mispredictions for core in result.cores)
            * 1000.0
            / committed
        )
    # MPKI floors: below ~0.05 misses per kilo-instruction the metric
    # is effectively zero and a relative error bar is meaningless.
    return {
        "cycles": _relative_error(cpis),
        "icache_mpki": _relative_error(icache_mpki, floor=0.05),
        "branch_mpki": _relative_error(branch_mpki, floor=0.05),
    }


def _merge_errors(
    per_stratum: list[dict[str, float | None]],
) -> dict[str, float | None]:
    """Combine per-stratum error estimates: worst case over strata.

    Each stratum extrapolates independently, so the conservative
    full-run bar for a metric is the largest stratum bar; strata with
    too few intervals for an estimate contribute nothing.
    """
    merged: dict[str, float | None] = {
        "cycles": None, "icache_mpki": None, "branch_mpki": None
    }
    for errors in per_stratum:
        for metric, value in errors.items():
            if value is None:
                continue
            current = merged[metric]
            merged[metric] = value if current is None else max(current, value)
    return merged


class SampledSimulator:
    """Runs one design point under a sampling plan; machine-agnostic."""

    def __init__(
        self,
        config: BaseMachineConfig,
        traces: TraceSet,
        plan: SamplingPlan,
        *,
        warm_l2: bool = True,
        cycle_skip: bool = True,
        checkpoints: Checkpointing | None = None,
    ) -> None:
        from repro.machine.model import model_for_config

        self.config = config
        self.traces = traces
        self.plan = plan
        self.warm_l2 = warm_l2
        self.cycle_skip = cycle_skip
        self.checkpoints = checkpoints
        self.model = model_for_config(config)

    def _checkpoint_key(self) -> CheckpointKey:
        """The identity of this run's warm-state checkpoints.

        The shape digest comes from the topology alone — no system is
        built — so a run whose checkpoints all hit never constructs a
        warming machine.
        """
        policy = self.checkpoints
        return CheckpointKey(
            machine=self.model.name,
            benchmark=self.traces.benchmark,
            seed=policy.seed,
            scale=policy.scale,
            threads=self.traces.thread_count,
            fingerprint=trace_fingerprint(self.traces),
            plan=self.plan.spec(),
            warm_l2=self.warm_l2,
            shape=warm_shape_digest(
                self.config, self.model.build_topology(self.config)
            ),
        )

    def _transient_cycles(self, max_cycles: int) -> int:
        """Measure the fixed per-interval startup transient once.

        Runs the probe skeleton at two sizes (one and two copies of the
        representative block) on *functionally pre-warmed* systems — a
        real measurement interval enters with restored warm state, so
        the probe must not charge compulsory misses to the transient —
        and extrapolates to zero blocks: ``2·c1 − c2`` cancels the
        block's own steady-state cost, leaving exactly the bring-up and
        drain overhead a materialised interval pays on top of its share
        of the contiguous run.
        """
        memo_key = (
            self.model.name,
            self.config.label(),
            trace_fingerprint(self.traces),
            self.warm_l2,
            self.cycle_skip,
        )
        cached = _TRANSIENT_MEMO.get(memo_key)
        if cached is not None:
            return cached

        def probe_cycles(copies: int) -> int:
            probe = _transient_probe(self.traces, copies)
            system = self.model.build_system(self.config, probe)
            if self.warm_l2:
                system.warm_instruction_l2s()
            full = Interval(
                kind=IntervalKind.WARM,
                index=0,
                spans=tuple(
                    (0, len(t.records)) for t in probe.threads
                ),
                entry_phases=tuple(() for _ in probe.threads),
                entry_ipc=tuple(None for _ in probe.threads),
                instructions=0,
            )
            # The same batched walk production warming takes.
            BatchedWarmer(system, probe).warm_interval(full)
            return SystemSimulator(
                system, cycle_skip=self.cycle_skip
            ).run(max_cycles).cycles

        transient = max(0, 2 * probe_cycles(1) - probe_cycles(2))
        if len(_TRANSIENT_MEMO) >= _TRANSIENT_MEMO_LIMIT:
            _TRANSIENT_MEMO.clear()
        _TRANSIENT_MEMO[memo_key] = transient
        return transient

    def run(self, max_cycles: int = 500_000_000) -> SimulationResult:
        """Simulate under the plan; return the extrapolated result."""
        plan = self.plan
        # Observability, grabbed once per run: a disabled recorder makes
        # `timer`/`tracer` None and every hook below a single check.
        timer = PhaseTimer() if _active_metrics() is not None else None
        tracer = _active_tracer()
        intervals = slice_traces(self.traces, plan)
        full_span = len(intervals) == 1 and intervals[0].spans == tuple(
            (0, len(t.records)) for t in self.traces.threads
        )
        if plan.exact or full_span:
            # Full coverage: the plain simulator is the measurement —
            # results are bit-identical to an unsampled run.
            started = time.perf_counter()
            result = simulate(
                self.config,
                self.traces,
                max_cycles=max_cycles,
                warm_l2=self.warm_l2,
                cycle_skip=self.cycle_skip,
            )
            result.sampling = self._payload(
                intervals,
                [result],
                errors={
                    "cycles": 0.0, "icache_mpki": 0.0, "branch_mpki": 0.0
                },
                exact=True,
            )
            if timer is not None:
                timer.add("measurement", time.perf_counter() - started)
                result.metrics = self._metrics_payload(
                    [result.metrics], intervals, timer, counters=None
                )
            return result

        policy = self.checkpoints
        store = policy.store if policy is not None else None
        key = self._checkpoint_key() if store is not None else None

        # Pure functional warming: `warming` tracks the warm state at
        # the entry of interval `walk_cursor`, except when
        # `pending_restore` holds the encoded state that must be
        # restored first (after a checkpoint hit advanced the cursor
        # without walking). Measurement machines get copies, so a miss
        # leaves the warming machine's tables as they were. The machine
        # — and its batched walker — are built lazily: a run served
        # entirely from checkpoints never pays for either.
        warming: System | None = None
        warmer: BatchedWarmer | None = None
        pending_restore: dict | None = None
        walk_cursor = 0
        hits = misses = writes = 0

        def ensure_warming_through(target: int) -> None:
            """Advance warming to the entry of interval ``target``."""
            nonlocal warming, warmer, pending_restore, walk_cursor
            started = time.perf_counter()
            span_from = tracer.wall_ts() if tracer is not None else 0.0
            walked_from = walk_cursor
            if warming is None:
                warming = self.model.build_system(self.config, self.traces)
                if self.warm_l2 and pending_restore is None:
                    # A truly cold start; a restored checkpoint already
                    # contains the warmed (or unwarmed) L2 content.
                    warming.warm_instruction_l2s()
                warmer = BatchedWarmer(warming, self.traces)
            if pending_restore is not None:
                warming.restore_warm_state(decode_state(pending_restore))
                pending_restore = None
            for position in range(walk_cursor, target):
                interval = intervals[position]
                if interval.kind is IntervalKind.SKIP:
                    continue
                warmer.warm_interval(interval)
            walk_cursor = target
            if timer is not None:
                timer.add("warming", time.perf_counter() - started)
            if tracer is not None:
                tracer.wall_span(
                    "warming",
                    cat="sampling",
                    started_ts=span_from,
                    args={"intervals": target - walked_from},
                )

        def materialise(interval: Interval, entry_state) -> System:
            """The interval's hollow measurement system, seeded with
            ``entry_state`` (which it adopts by reference)."""
            system = self.model.build_system(
                self.config,
                interval_traceset(self.traces, interval),
                hollow=True,
            )
            system.restore_warm_state(entry_state)
            return system

        exhaustive: list[SimulationResult] = []
        sampled: list[tuple[Interval, SimulationResult]] = []
        detail_ordinal = 0
        for position, interval in enumerate(intervals):
            if interval.kind is not IntervalKind.DETAIL:
                continue
            ordinal = detail_ordinal
            detail_ordinal += 1
            payload = None
            if store is not None and not policy.refresh:
                io_started = time.perf_counter()
                payload = store.get(key, ordinal)
                if timer is not None:
                    timer.add("store_io", time.perf_counter() - io_started)
            system = None
            if payload is not None:
                try:
                    entry_state = decode_state(payload)
                    measure_started = time.perf_counter()
                    span_from = tracer.wall_ts() if tracer is not None else 0.0
                    system = materialise(interval, entry_state)
                except ConfigurationError:
                    # A damaged or foreign entry is a miss, like corrupt
                    # JSON in the store: re-warm and let the put below
                    # heal it.
                    system = None
                else:
                    hits += 1
                    pending_restore = payload
                    walk_cursor = position
            if system is None:
                misses += 1
                ensure_warming_through(position)
                live = warming.capture_warm_state()
                if store is not None:
                    encoded = encode_state(live)
                    io_started = time.perf_counter()
                    store.put(key, ordinal, encoded, self.config.label())
                    writes += 1
                    if timer is not None:
                        timer.add(
                            "store_io", time.perf_counter() - io_started
                        )
                measure_started = time.perf_counter()
                span_from = tracer.wall_ts() if tracer is not None else 0.0
                # The measurement machine adopts a copy; the warming
                # machine keeps its own tables and walks on from here.
                system = materialise(interval, live.copy())
            if tracer is not None:
                tracer.wall_span(
                    "materialise",
                    cat="sampling",
                    started_ts=span_from,
                    args={"interval": position, "ordinal": ordinal},
                )
                span_from = tracer.wall_ts()
            result = SystemSimulator(
                system, cycle_skip=self.cycle_skip
            ).run(max_cycles)
            if timer is not None:
                timer.add(
                    "measurement", time.perf_counter() - measure_started
                )
            if tracer is not None:
                tracer.wall_span(
                    "measure",
                    cat="sampling",
                    started_ts=span_from,
                    args={
                        "interval": position,
                        "ordinal": ordinal,
                        "cycles": result.cycles,
                    },
                )
            if interval.exhaustive:
                exhaustive.append(result)
            else:
                sampled.append((interval, result))

        sampled_results = [result for _, result in sampled]
        sampled_instructions = sum(
            r.total_committed for r in sampled_results
        )
        if not sampled or sampled_instructions == 0:
            raise SimulationError(
                f"sampling plan {plan.spec()} measured no instructions on "
                f"{self.traces.benchmark!r}; widen detail_instructions"
            )
        # Materialised intervals pay a fixed startup transient a
        # contiguous run pays once; subtract it from every sampled
        # interval so small detail units don't bias cycles upward.
        # Exhaustive intervals are measured, not extrapolated, and keep
        # their true cost.
        extrapolation_started = time.perf_counter()
        span_from = tracer.wall_ts() if tracer is not None else 0.0
        transient = self._transient_cycles(max_cycles)
        for result in sampled_results:
            result.cycles = max(1, result.cycles - transient)
        # Stratified extrapolation: exhaustively-measured intervals
        # count once; each sampled stratum is scaled so its measured
        # instructions stand in for the stratum's whole non-exhaustive
        # population — the estimate never crosses strata.
        weighted = [(r, 1.0) for r in exhaustive]
        factors: dict[str, float] = {}
        per_stratum_errors: list[dict[str, float | None]] = []
        for stratum in sorted({i.stratum for i, _ in sampled}):
            stratum_results = [
                result
                for interval, result in sampled
                if interval.stratum == stratum
            ]
            committed = sum(r.total_committed for r in stratum_results)
            if committed == 0:
                raise SimulationError(
                    f"sampling plan {plan.spec()} measured no "
                    f"instructions in the {stratum!r} stratum of "
                    f"{self.traces.benchmark!r}; widen "
                    f"detail_instructions"
                )
            stratum_total = sum(
                interval.instructions
                for interval in intervals
                if not interval.exhaustive and interval.stratum == stratum
            )
            factor = stratum_total / committed
            factors[stratum] = round(factor, 6)
            weighted.extend((r, factor) for r in stratum_results)
            per_stratum_errors.append(_error_estimates(stratum_results))
        result = _combine(weighted)
        counters = (
            {"hits": hits, "misses": misses, "writes": writes}
            if policy is not None
            else None
        )
        result.sampling = self._payload(
            intervals,
            exhaustive + sampled_results,
            errors=_merge_errors(per_stratum_errors),
            exact=False,
            factors=factors,
            transient=transient,
            counters=counters,
        )
        if timer is not None:
            timer.add(
                "extrapolation", time.perf_counter() - extrapolation_started
            )
            result.metrics = self._metrics_payload(
                [r.metrics for r in exhaustive + sampled_results],
                intervals,
                timer,
                counters,
            )
        if tracer is not None:
            tracer.wall_span("extrapolate", cat="sampling", started_ts=span_from)
        return result

    def _metrics_payload(
        self,
        interval_payloads: list,
        intervals: list[Interval],
        timer: PhaseTimer,
        counters: dict[str, int] | None,
    ) -> list[dict]:
        """Roll the interval runs' metrics up into the final result's.

        Kernel counters from every measured interval merge and gain the
        ``sampling=<plan spec>`` label; on top come the plan's interval
        mix, the checkpoint traffic and the ``phase.*`` wall-time
        attribution (warming / measurement / extrapolation / store I/O).
        """
        spec = self.plan.spec()
        labels = {"machine": self.model.name, "sampling": spec}
        registry = MetricsRegistry.rollup(interval_payloads).relabel(
            sampling=spec
        )
        for kind in IntervalKind:
            count = sum(1 for i in intervals if i.kind is kind)
            registry.counter(
                "sampling.intervals", kind=kind.name.lower(), **labels
            ).inc(count)
        for name, value in (counters or {}).items():
            registry.counter(f"sampling.checkpoint.{name}", **labels).inc(
                value
            )
        timer.record(registry, **labels)
        return registry.to_payload()

    def _payload(
        self,
        intervals: list[Interval],
        measured: list[SimulationResult],
        errors: dict[str, float | None],
        exact: bool,
        factors: dict[str, float] | None = None,
        transient: int = 0,
        counters: dict[str, int] | None = None,
    ) -> dict:
        plan = self.plan
        by_kind = {
            kind: sum(1 for i in intervals if i.kind is kind)
            for kind in IntervalKind
        }
        payload = {
            "plan": plan.spec(),
            # Effective coverage: an exact run (skip=0, or a trace too
            # small to slice) measured everything regardless of plan.
            "coverage": 1.0 if exact else round(plan.coverage, 6),
            "exact": exact,
            "intervals": {
                "detail": by_kind[IntervalKind.DETAIL],
                "warm": by_kind[IntervalKind.WARM],
                "skip": by_kind[IntervalKind.SKIP],
            },
            "measured_instructions": sum(
                r.total_committed for r in measured
            ),
            "total_instructions": self.traces.instruction_count,
            "factors": factors or {},
            "transient_cycles": transient,
            "errors": errors,
        }
        if counters is not None:
            payload["checkpoints"] = counters
        return payload


def simulate_sampled(
    config: BaseMachineConfig,
    traces: TraceSet,
    plan: SamplingPlan | None,
    max_cycles: int = 500_000_000,
    warm_l2: bool = True,
    cycle_skip: bool = True,
    checkpoints: Checkpointing | None = None,
) -> SimulationResult:
    """Sampled counterpart of :func:`repro.machine.simulator.simulate`.

    ``plan=None`` falls through to plain full simulation (no sampling
    payload); a plan with ``skip = 0`` runs fully detailed but carries
    an ``exact`` sampling payload; any other plan samples and
    extrapolates, reading and writing warm-state checkpoints when a
    :class:`~repro.sampling.checkpoints.Checkpointing` policy is given.
    """
    if plan is None:
        return simulate(
            config,
            traces,
            max_cycles=max_cycles,
            warm_l2=warm_l2,
            cycle_skip=cycle_skip,
        )
    return SampledSimulator(
        config,
        traces,
        plan,
        warm_l2=warm_l2,
        cycle_skip=cycle_skip,
        checkpoints=checkpoints,
    ).run(max_cycles)
