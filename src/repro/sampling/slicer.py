"""Deterministic, sync-aligned interval slicing over a :class:`TraceSet`.

The slicer turns a multi-threaded trace into an ordered list of
:class:`Interval` objects — contiguous per-thread record spans tagged
``DETAIL`` (simulate in full), ``WARM`` (functionally warm the caches
and predictors) or ``SKIP`` (fast-forward) — such that concatenating
every interval's spans reproduces the original records exactly, and no
synchronisation construct ever straddles an interval boundary:

* **Global sync events** (``PARALLEL_START``/``PARALLEL_END``/
  ``BARRIER``) partition each thread's stream into *windows*. Every
  thread participates in the same event sequence, so window ``w`` means
  the same point of the program on every thread. Cuts are only placed
  *within* one window — strictly before its terminating event record —
  or exactly at a window boundary, so a join's arrivals always land in
  one interval together and a fork's announcement is never separated
  from the workers it releases (threads entering an interval mid-phase
  get the already-open ``PARALLEL_START`` records re-issued by the
  interval materialiser, restoring both runtime state and the parallel
  bracketing that machine-specific record transforms key on).
* **Critical sections** (``WAIT`` … ``SIGNAL``) are never split: cut
  positions are nudged off any span where the thread holds a lock.

Within a window, each thread cuts at the record boundary closest to the
same *fraction* of its window work, so intervals line up across threads
even though threads progress at different rates.

The systematic detail/warm/skip schedule applies *per stratum*. Serial
windows — stretches where only the master thread executes — have an
aggregate CPI that differs from the parallel bulk by roughly the core
count, so extrapolating them from parallel-phase measurements would
bias the cycle estimate far more than their size suggests. Small serial
strata (most codes) are measured exhaustively; a serial stratum big
enough to hold at least two full sampling periods (serial-heavy codes
like CoMD) gets its own systematic schedule over the serial instruction
line, and the extrapolation runs per stratum. Either way the sampled
estimate never crosses strata.

Slicing is a pure function of (records, plan): every host, every
process and every run agrees on the boundaries.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

from repro.sampling.plan import SamplingPlan
from repro.trace.records import (
    BasicBlockRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet

__all__ = ["Interval", "IntervalKind", "interval_traceset", "slice_traces"]

#: Sync kinds every thread observes in the same order (the global
#: program structure); WAIT/SIGNAL are thread-local and excluded.
_GLOBAL_KINDS = (SyncKind.PARALLEL_START, SyncKind.PARALLEL_END, SyncKind.BARRIER)


class IntervalKind(enum.Enum):
    """What the sampled simulator does with one interval."""

    DETAIL = "detail"  # full cycle-level simulation (measured)
    WARM = "warm"  # functional warming: state updates, no timing
    SKIP = "skip"  # fast-forward: no simulation, no state updates


@dataclass(frozen=True)
class Interval:
    """One slice of the trace, aligned across threads.

    Attributes:
        kind: how the sampled simulator treats this interval.
        index: position in the slicing (0-based).
        spans: per-thread ``[start, end)`` record index ranges into the
            original :class:`TraceSet`.
        entry_phases: per-thread tuple of parallel-phase ids open at the
            interval's entry (innermost last); the materialiser re-issues
            their ``PARALLEL_START`` records.
        entry_ipc: per-thread commit rate in force at entry (``None``
            when the thread has not passed an IPC record yet).
        instructions: aggregate dynamic instructions across all threads.
        exhaustive: True for intervals measured by construction rather
            than by the systematic schedule (serial stretches, degenerate
            whole-trace slices); their counts enter the extrapolation
            with weight 1 instead of the sampling factor.
        stratum: which stratification stratum the interval belongs to —
            ``"parallel"`` (the worker bulk) or ``"serial"`` (master-only
            stretches). Sampled intervals extrapolate within their own
            stratum only: serial CPI differs from parallel CPI by
            roughly the core count, so cross-stratum extrapolation would
            bias cycles badly.
    """

    kind: IntervalKind
    index: int
    spans: tuple[tuple[int, int], ...]
    entry_phases: tuple[tuple[int, ...], ...]
    entry_ipc: tuple[float | None, ...]
    instructions: int
    exhaustive: bool = False
    stratum: str = "parallel"


@dataclass
class _ThreadIndex:
    """Prefix metadata over one thread's records.

    All arrays have ``len(records) + 1`` entries; index ``i`` describes
    the state *before* record ``i``.
    """

    insts: list[int]  # cumulative instruction count
    lock_depth: list[int]  # open WAITs without their SIGNAL
    phases: list[tuple[int, ...]]  # open parallel phases (stack)
    ipc: list[float | None]  # last IPC record value seen
    events: list[tuple[int, int]]  # (record index, position) per global event


def _index_thread(trace: ThreadTrace) -> _ThreadIndex:
    insts = [0]
    lock_depth = [0]
    phases: list[tuple[int, ...]] = [()]
    ipc: list[float | None] = [None]
    events: list[tuple[int, int]] = []
    depth = 0
    stack: tuple[int, ...] = ()
    current_ipc: float | None = None
    total = 0
    for position, record in enumerate(trace.records):
        if isinstance(record, BasicBlockRecord):
            total += record.instruction_count
        elif isinstance(record, IpcRecord):
            current_ipc = record.ipc
        elif isinstance(record, SyncRecord):
            if record.kind is SyncKind.WAIT:
                depth += 1
            elif record.kind is SyncKind.SIGNAL:
                depth = max(0, depth - 1)
            elif record.kind is SyncKind.PARALLEL_START:
                stack = stack + (record.object_id,)
            elif record.kind is SyncKind.PARALLEL_END:
                stack = stack[:-1]
            if record.kind in _GLOBAL_KINDS:
                events.append((position, len(events)))
        insts.append(total)
        lock_depth.append(depth)
        phases.append(stack)
        ipc.append(current_ipc)
    return _ThreadIndex(
        insts=insts, lock_depth=lock_depth, phases=phases, ipc=ipc,
        events=events,
    )


def _global_event_signature(traces: TraceSet) -> list[tuple[int, int]] | None:
    """The (kind, object_id) sequence shared by every thread, or ``None``
    when threads disagree (slicing then degenerates to one interval)."""
    signature: list[tuple[int, int]] | None = None
    for trace in traces.threads:
        seq = [
            (int(record.kind), record.object_id)
            for record in trace.records
            if isinstance(record, SyncRecord) and record.kind in _GLOBAL_KINDS
        ]
        if signature is None:
            signature = seq
        elif seq != signature:
            return None
    return signature or []


def _full_interval(traces: TraceSet, kind: IntervalKind) -> Interval:
    return Interval(
        kind=kind,
        index=0,
        spans=tuple((0, len(t.records)) for t in traces.threads),
        entry_phases=tuple(() for _ in traces.threads),
        entry_ipc=tuple(None for _ in traces.threads),
        instructions=traces.instruction_count,
        exhaustive=True,
    )


def _plan_segments(
    total: int, plan: SamplingPlan
) -> list[tuple[IntervalKind, int, int]]:
    """The systematic schedule over the aggregate instruction line."""
    period = plan.period
    skip_only = plan.skip_instructions - plan.warmup_instructions
    thresholds = (
        (skip_only, IntervalKind.SKIP),
        (plan.skip_instructions, IntervalKind.WARM),
        (period, IntervalKind.DETAIL),
    )
    segments: list[tuple[IntervalKind, int, int]] = []
    g = 0
    phase = plan.phase_offset
    while g < total:
        for threshold, kind in thresholds:
            if phase < threshold:
                length = min(threshold - phase, total - g)
                segments.append((kind, g, g + length))
                g += length
                phase += length
                break
        else:
            phase = 0
    # Merge adjacent same-kind segments (phase wrap produces splits).
    merged: list[tuple[IntervalKind, int, int]] = []
    for kind, start, end in segments:
        if start == end:
            continue
        if merged and merged[-1][0] is kind and merged[-1][2] == start:
            merged[-1] = (kind, merged[-1][1], end)
        else:
            merged.append((kind, start, end))
    return merged


def slice_traces(
    traces: TraceSet, plan: SamplingPlan
) -> tuple[Interval, ...]:
    """Slice a trace set into sampling intervals under ``plan``.

    Returns intervals in trace order whose spans tile every thread's
    records exactly. Traces whose threads disagree on the global sync
    event sequence (never the case for synthesized benchmarks) are not
    sliceable and come back as one full ``DETAIL`` interval, which the
    sampled simulator treats as an exact run.

    Slicing is a pure function of the records and the plan, and a
    timing sweep slices the same trace set once per design point, so
    the result is memoised on the set by :meth:`SamplingPlan.spec`, the
    way :func:`~repro.trace.fingerprint.trace_fingerprint` keeps its
    digest (slotted sets skip the memo). The memo hands every caller
    the same tuple of frozen intervals, which no caller can edit.
    """
    memo = getattr(traces, "_slices", None)
    spec = plan.spec()
    if memo is not None and spec in memo:
        return memo[spec]
    intervals = tuple(_slice_traces(traces, plan))
    if memo is None:
        memo = {}
        try:
            traces._slices = memo
        except AttributeError:  # slotted trace sets: skip the memo
            return intervals
    memo[spec] = intervals
    return intervals


def _slice_traces(traces: TraceSet, plan: SamplingPlan) -> list[Interval]:
    signature = _global_event_signature(traces)
    if signature is None:
        return [_full_interval(traces, IntervalKind.DETAIL)]
    indexes = [_index_thread(trace) for trace in traces.threads]
    total = traces.instruction_count
    if plan.exact or total <= plan.detail_instructions:
        return [_full_interval(traces, IntervalKind.DETAIL)]

    # Window bounds per thread: window w spans records
    # [bounds[w], bounds[w + 1]) where the last record of every window
    # but the final one is its terminating global event.
    window_count = len(signature) + 1
    bounds: list[list[int]] = []
    for trace, index in zip(traces.threads, indexes):
        b = [0]
        for event_position, _ in index.events:
            b.append(event_position + 1)
        b.append(len(trace.records))
        bounds.append(b)
    # Aggregate and worker-side instructions per window; a window with
    # no worker instructions is a serial stretch (master only).
    window_insts = []
    window_serial = []
    for w in range(window_count):
        per_thread = [
            index.insts[bounds[t][w + 1]] - index.insts[bounds[t][w]]
            for t, index in enumerate(indexes)
        ]
        window_insts.append(sum(per_thread))
        window_serial.append(sum(per_thread[1:]) == 0)
    parallel_total = sum(
        insts
        for insts, serial in zip(window_insts, window_serial)
        if not serial
    )
    if parallel_total <= plan.detail_instructions:
        return [_full_interval(traces, IntervalKind.DETAIL)]

    def in_window_cut(w: int, fraction: float) -> tuple[int, ...]:
        """Per-thread cut indices at ``fraction`` of window ``w``."""
        cuts = []
        for index, thread_bounds in zip(indexes, bounds):
            start, end = thread_bounds[w], thread_bounds[w + 1]
            # Cuts stay strictly before the window's terminating event
            # record so a join's arrivals never split across intervals.
            limit = end - 1 if w < window_count - 1 else end
            start_insts = index.insts[start]
            window_span = index.insts[end] - start_insts
            target = start_insts + fraction * window_span
            position = bisect_left(index.insts, target, lo=start, hi=limit)
            # Nudge off any span where the thread holds a lock (never
            # split a WAIT .. SIGNAL critical section).
            while position < limit and index.lock_depth[position] > 0:
                position += 1
            while position > start and index.lock_depth[position] > 0:
                position -= 1
            cuts.append(min(position, limit))
        return tuple(cuts)

    # Serial-heavy codes (CoMD): when the master-only stratum is large
    # enough to hold a full sampling period with a guaranteed DETAIL
    # segment, sample it with its own systematic schedule instead of
    # simulating every serial instruction in detail. Small serial
    # strata stay exhaustively measured — sampling a stratum that fits
    # inside one period would extrapolate from a sliver.
    serial_total = sum(
        insts
        for insts, serial in zip(window_insts, window_serial)
        if serial
    )
    serial_segments: list[tuple[IntervalKind, int, int]] | None = None
    if serial_total >= 2 * plan.period:
        candidate = _plan_segments(serial_total, plan)
        if any(kind is IntervalKind.DETAIL for kind, _, _ in candidate):
            serial_segments = candidate

    # Build the boundary-event list: (cut vector, kind, exhaustive,
    # stratum) of the interval that starts there. Serial windows are
    # exhaustively DETAIL (or follow their own schedule, above);
    # parallel windows follow the systematic schedule over the
    # parallel-only instruction line.
    segments = _plan_segments(parallel_total, plan)
    events: list[tuple[tuple[int, ...], IntervalKind, bool, str]] = []
    parallel_position = 0
    segment_index = 0
    serial_position = 0
    serial_index = 0
    for w in range(window_count):
        window_start = tuple(thread_bounds[w] for thread_bounds in bounds)
        if window_serial[w]:
            if serial_segments is None:
                events.append(
                    (window_start, IntervalKind.DETAIL, True, "serial")
                )
                continue
            window_end_position = serial_position + window_insts[w]
            while (
                serial_index < len(serial_segments)
                and serial_segments[serial_index][2] <= serial_position
            ):
                serial_index += 1
            events.append(
                (
                    window_start,
                    serial_segments[serial_index][0],
                    False,
                    "serial",
                )
            )
            probe = serial_index + 1
            while (
                probe < len(serial_segments)
                and serial_segments[probe][1] < window_end_position
            ):
                g = serial_segments[probe][1]
                fraction = (g - serial_position) / window_insts[w]
                events.append(
                    (
                        in_window_cut(w, fraction),
                        serial_segments[probe][0],
                        False,
                        "serial",
                    )
                )
                probe += 1
            serial_position = window_end_position
            continue
        window_end_position = parallel_position + window_insts[w]
        while (
            segment_index < len(segments)
            and segments[segment_index][2] <= parallel_position
        ):
            segment_index += 1
        events.append(
            (window_start, segments[segment_index][0], False, "parallel")
        )
        probe = segment_index + 1
        while probe < len(segments) and segments[probe][1] < window_end_position:
            g = segments[probe][1]
            fraction = (g - parallel_position) / window_insts[w]
            events.append(
                (
                    in_window_cut(w, fraction),
                    segments[probe][0],
                    False,
                    "parallel",
                )
            )
            probe += 1
        parallel_position = window_end_position

    end_vector = tuple(len(t.records) for t in traces.threads)
    intervals: list[Interval] = []
    previous = tuple(0 for _ in traces.threads)
    for number, (vector, kind, exhaustive, stratum) in enumerate(events):
        current = (
            end_vector
            if number + 1 == len(events)
            else tuple(max(a, b) for a, b in zip(events[number + 1][0], vector))
        )
        # Clamp against reordering (fraction snapping is monotonic
        # within a window, window starts are monotonic across windows;
        # the clamp is defensive) and drop empty intervals.
        current = tuple(max(c, p) for c, p in zip(current, previous))
        if current == previous:
            continue
        spans = tuple(zip(previous, current))
        instructions = sum(
            index.insts[end] - index.insts[start]
            for index, (start, end) in zip(indexes, spans)
        )
        last = intervals[-1] if intervals else None
        if (
            last is not None
            and last.kind is kind
            and last.exhaustive == exhaustive
            and last.stratum == stratum
        ):
            # Merge contiguous intervals of the same flavor (a phase
            # boundary inside one skip span, two warm spans meeting).
            intervals[-1] = Interval(
                kind=kind,
                index=last.index,
                spans=tuple(
                    (old[0], new[1]) for old, new in zip(last.spans, spans)
                ),
                entry_phases=last.entry_phases,
                entry_ipc=last.entry_ipc,
                instructions=last.instructions + instructions,
                exhaustive=exhaustive,
                stratum=stratum,
            )
            previous = current
            continue
        intervals.append(
            Interval(
                kind=kind,
                index=len(intervals),
                spans=spans,
                entry_phases=tuple(
                    index.phases[start]
                    for index, (start, _) in zip(indexes, spans)
                ),
                entry_ipc=tuple(
                    index.ipc[start]
                    for index, (start, _) in zip(indexes, spans)
                ),
                instructions=instructions,
                exhaustive=exhaustive,
                stratum=stratum,
            )
        )
        previous = current
    if previous != end_vector:  # pragma: no cover - defensive
        raise AssertionError("interval slicing did not tile the trace")
    if not any(
        interval.kind is IntervalKind.DETAIL and not interval.exhaustive
        for interval in intervals
    ):
        # Degenerate schedule (e.g. a trace whose whole parallel stream
        # fits inside one skip span): measure everything rather than
        # extrapolating from nothing.
        return [_full_interval(traces, IntervalKind.DETAIL)]
    return intervals


def interval_traceset(traces: TraceSet, interval: Interval) -> TraceSet:
    """Materialise one interval as a standalone runnable trace set.

    Each thread's records are its span, prefixed with re-issued
    ``PARALLEL_START`` records for phases already open at entry (the
    fresh interval runtime re-announces them; this also restores the
    parallel bracketing that record transforms such as lean-core
    serial-IPC scaling key on) and an ``IpcRecord`` carrying the commit
    rate in force at the cut.
    """
    threads = []
    for thread_id, (start, end) in enumerate(interval.spans):
        records = []
        for phase in interval.entry_phases[thread_id]:
            records.append(SyncRecord(SyncKind.PARALLEL_START, phase))
        ipc = interval.entry_ipc[thread_id]
        if ipc is not None:
            records.append(IpcRecord(ipc))
        records.extend(traces.threads[thread_id].records[start:end])
        threads.append(ThreadTrace(thread_id=thread_id, records=records))
    return TraceSet(benchmark=traces.benchmark, threads=threads)
