"""The decoupled core front-end (Fig. 5, Section IV-A).

Pipeline stages modelled per cycle:

1. **FTQ fill** — the fetch predictor consumes the trace one basic block
   per cycle and pushes it into the fetch target queue. A mispredicted
   terminating branch stalls further fills for the redirect penalty
   (front-end flush + refill bubble). Synchronisation records are
   delivered to the runtime once the pipeline has drained.
2. **Issue** — the fetch engine walks the FTQ's pending line *pieces* in
   order, within a window of the first :attr:`FetchEngine.ISSUE_WINDOW`
   pieces. A piece whose line sits in a line buffer is ready immediately
   (no I-cache access — this is what makes the loop buffer cut shared-bus
   traffic, Fig. 9); a pending line merges; otherwise a line buffer is
   allocated and a request issued to the I-cache port (private cache or
   shared interconnect). One new request per cycle. The walk only ever
   dispositions (moves out of ``UNISSUED``) a prefix of the FTQ, so it
   resumes after that prefix, and it runs only while an unissued piece
   sits inside the window.
3. **Extract** — one ready line per cycle is shifted/rotated into the
   instruction queue feeding the back-end.

Consecutive fall-through blocks naturally coalesce at the line level:
their pieces hit the same line buffer, so a *fetch block* spanning several
basic blocks costs a single I-cache access, as in the paper's FTQ design.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.branch.fetch_predictor import FetchPredictor
from repro.cache.line_buffer import LineBufferSet, LookupState
from repro.engine import NEVER
from repro.errors import SimulationError
from repro.frontend.itlb import InstructionTlb
from repro.frontend.request import LineRequest
from repro.runtime.coordinator import RuntimeCoordinator
from repro.runtime.threads import ThreadContext, ThreadState
from repro.trace.records import (
    BasicBlockRecord,
    EndRecord,
    IpcRecord,
    SyncRecord,
)
from repro.trace.stream import TraceStream


class PieceStatus(enum.Enum):
    UNISSUED = "unissued"
    WAITING = "waiting"  # merged into an in-flight fetch of the same line
    REQUESTED = "requested"  # owns an outstanding I-cache request
    READY = "ready"  # instructions available for extraction


#: Enum members bound to module globals: the per-cycle stages compare
#: against them constantly, and a global load is about four times
#: cheaper than an Enum class-attribute load.
_UNISSUED = PieceStatus.UNISSUED
_WAITING = PieceStatus.WAITING
_REQUESTED = PieceStatus.REQUESTED
_READY = PieceStatus.READY
_HIT = LookupState.HIT
_PENDING = LookupState.PENDING
_RUNNING = ThreadState.RUNNING
_BLOCKED = ThreadState.BLOCKED
_FINISHED = ThreadState.FINISHED


@dataclass(slots=True)
class _Piece:
    """The part of a basic block that falls within one cache line."""

    line: int
    instructions: int
    #: whether this is its basic block's last piece (the FTQ entry
    #: frees when it is extracted).
    last: bool = False
    status: PieceStatus = PieceStatus.UNISSUED
    request: LineRequest | None = None
    #: whether this piece's line request was already counted in the
    #: access-ratio statistics (one count per piece, ever).
    counted: bool = False


@dataclass
class FetchStats:
    """Front-end counters reported per core."""

    blocks_fetched: int = 0
    redirects: int = 0
    sync_events: int = 0


class FetchEngine:
    """One core's front-end. Stepped once per cycle while runnable."""

    #: How many pieces ahead of the extraction point the issue stage may
    #: look; matches the outstanding-request capability of the buffers.
    ISSUE_WINDOW = 8

    def __init__(
        self,
        core_id: int,
        context: ThreadContext,
        stream: TraceStream,
        predictor: FetchPredictor,
        line_buffers: LineBufferSet,
        port,
        runtime: RuntimeCoordinator,
        *,
        ftq_capacity: int = 8,
        mispredict_penalty: int = 8,
        line_bytes: int = 64,
        itlb: InstructionTlb | None = None,
    ) -> None:
        self.core_id = core_id
        self.context = context
        self.stream = stream
        self.predictor = predictor
        self.line_buffers = line_buffers
        self.port = port
        self.runtime = runtime
        self.ftq_capacity = ftq_capacity
        self.mispredict_penalty = mispredict_penalty
        self._line_mask = ~(line_bytes - 1)
        self._line_bytes = line_bytes
        #: The fetch target queue, flattened to its line pieces in fetch
        #: order; ``_blocks`` counts its entries (basic blocks).
        self._ftq: deque[_Piece] = deque()
        self._blocks = 0
        self._redirect_until = 0
        #: Leading FTQ pieces already dispositioned (no longer UNISSUED).
        self._issued = 0
        #: Whether the issue scan has work: an unissued piece sits inside
        #: the window. A push or a fill arms it, and so does an
        #: extraction that brings the first unissued piece into the
        #: window; a scan that runs out of window or of line buffers
        #: disarms it.
        self._issue_armed = False
        #: Optional iTLB (Section VII extension); None disables translation.
        self.itlb = itlb
        self._tlb_stall_until = 0
        #: A mispredict was detected; fetch stalls until the pipeline
        #: drains (branch resolution), then pays the redirect penalty.
        self._redirect_drain = False
        #: True when the last step's three stages all did nothing — a
        #: cheap hint that a sleep probe is worth running. Purely a
        #: performance gate: :meth:`sleep_state` is the correctness
        #: check, and an un-probed front-end simply stays on the run
        #: list stepping no-ops, exactly like the reference engine.
        self.idle_step = False
        self.stats = FetchStats()
        #: set by attach_backend: callable returning free IQ capacity
        self.iq_space = lambda: 1 << 30
        #: set by attach_backend: callable(instructions) adds to the IQ
        self.iq_push = lambda count: None
        #: set by attach_backend: callable(ipc) retargets the back-end
        self.on_ipc = lambda ipc: None

    # -- back-end wiring ---------------------------------------------------

    def attach_backend(self, backend, iq_capacity: int | None = None) -> None:
        """Wire a back-end's instruction queue into this front-end.

        The front-end needs three capabilities from the back-end — free
        IQ space (extraction gate), pushing extracted instructions, and
        retargeting the commit rate on IPC records — plus the IQ capacity
        so :meth:`_drained` can recognise an empty pipeline.

        Args:
            backend: an object with ``iq_space()``, ``iq_push(count)``,
                ``set_ipc(ipc)`` and an ``iq_capacity`` attribute (the
                :class:`~repro.backend.backend.CommitEngine` interface).
            iq_capacity: override for the drained-IQ threshold; defaults
                to ``backend.iq_capacity``.
        """
        self.iq_space = backend.iq_space
        self.iq_push = backend.iq_push
        self.on_ipc = backend.set_ipc
        self._iq_capacity_hint = (
            backend.iq_capacity if iq_capacity is None else iq_capacity
        )

    # -- per-cycle step ----------------------------------------------------

    def step(self, now: int) -> None:
        """Run fill, issue and extract for this cycle."""
        if self.context.state is not _RUNNING:
            return
        acted = False
        # Stage 1: FTQ fill. A mispredicted branch is in flight: it
        # resolves roughly when the pre-branch backlog commits, so fetch
        # of the correct path cannot overlap the backlog. Wait for a
        # full drain, then pay the redirect (flush + refill) penalty.
        if self._redirect_drain:
            if self._drained():
                self.begin_redirect(now)
                acted = True
        elif now >= self._redirect_until and self._blocks < self.ftq_capacity:
            acted = self._fill_ftq(now)
        # Stage 2: issue.
        if self._issue_armed and now >= self._tlb_stall_until:
            self._issue(now)
            acted = True
        # Stage 3: extract one ready line into the instruction queue.
        ftq = self._ftq
        if ftq:
            piece = ftq[0]
            if piece.status is _READY and self.iq_space() >= piece.instructions:
                self._extract()
                acted = True
        self.idle_step = not acted

    # -- stage 1: FTQ fill ---------------------------------------------------

    def _fill_ftq(self, now: int) -> bool:
        """One fill-stage cycle past its gates; whether anything happened."""
        # Metadata records are free; process them until a basic block, a
        # sync point or the end of the trace.
        while True:
            record = self.stream.peek()
            if isinstance(record, IpcRecord):
                self.stream.next()
                self.on_ipc(record.ipc)
                continue
            break
        if isinstance(record, BasicBlockRecord):
            self.stream.next()
            self._push_block(record, now)
            return True
        if isinstance(record, (SyncRecord, EndRecord)):
            if not self._drained():
                return False  # sync waits for the pipeline to drain
            if isinstance(record, EndRecord):
                self.context.finish(now)
                self.runtime.thread_finished(self.core_id, now)
                return True
            self.stream.next()
            self.stats.sync_events += 1
            self.runtime.deliver(self.core_id, record, now)
            return True
        raise SimulationError(
            f"core {self.core_id}: unhandled trace record {record!r}"
        )

    def _push_block(self, block: BasicBlockRecord, now: int) -> None:
        self.stats.blocks_fetched += 1
        ftq = self._ftq
        start = block.address
        end = block.end_address
        line = start & self._line_mask
        line_bytes = self._line_bytes
        # One piece per line the block touches (a block holds at least
        # one instruction); the last piece frees the FTQ entry.
        while True:
            line_end = line + line_bytes
            if end <= line_end:
                ftq.append(_Piece(line, (end - start) // 4, True))
                break
            ftq.append(_Piece(line, (line_end - start) // 4))
            start = line = line_end
        self._blocks += 1
        # The new pieces are unissued, so the window holds one unless it
        # is full of dispositioned pieces already.
        self._issue_armed = self._issued < self.ISSUE_WINDOW
        correct = self.predictor.resolve(block.branch_address, block.branch)
        if not correct:
            self.stats.redirects += 1
            self._redirect_drain = True

    def _drained(self) -> bool:
        return not self._ftq and self.iq_space() >= self._iq_capacity_hint

    #: set by the system so _drained can detect an empty IQ
    _iq_capacity_hint: int = 1 << 30

    # -- stage 2: issue ------------------------------------------------------

    def _issue(self, now: int) -> None:
        """One issue-stage cycle of an armed scan past any iTLB walk.

        Resumes at the first unissued piece: the dispositioned pieces
        always form a prefix, since the scan stops at the first piece it
        cannot disposition and extraction only removes the head.
        """
        ftq = self._ftq
        end = len(ftq)
        if end > self.ISSUE_WINDOW:
            end = self.ISSUE_WINDOW  # later pieces enter as earlier extract
        line_buffers = self.line_buffers
        position = self._issued
        issued_request = False
        while position < end:
            piece = ftq[position]
            state = line_buffers.lookup(piece.line, count=not piece.counted)
            piece.counted = True
            if state is _HIT:
                piece.status = _READY
            elif state is _PENDING:
                piece.status = _WAITING
            else:
                if issued_request:
                    break  # one new request per cycle; rescan next cycle
                if self.itlb is not None:
                    walk_penalty = self.itlb.translate(piece.line)
                    if walk_penalty:
                        # Page walk before the fetch can go out; the piece
                        # stays unissued and the scan resumes afterwards.
                        self._tlb_stall_until = now + walk_penalty
                        break
                if not line_buffers.allocate(piece.line):
                    # No free outstanding-request slot: only a fill (or
                    # a push) re-arms the scan.
                    self._issue_armed = False
                    break
                piece.request = self.port.request(piece.line, now)
                piece.status = _REQUESTED
                issued_request = True
            position += 1
        else:
            # Every piece inside the window is dispositioned.
            self._issue_armed = False
        self._issued = position

    # -- stage 3: extract ----------------------------------------------------

    def _extract(self) -> None:
        """Move the ready head piece into the instruction queue."""
        ftq = self._ftq
        piece = ftq.popleft()
        self.iq_push(piece.instructions)
        if piece.last:
            self._blocks -= 1
        issued = self._issued - 1  # the head was dispositioned (ready)
        self._issued = issued
        if issued == self.ISSUE_WINDOW - 1 and len(ftq) > issued:
            # The first unissued piece just entered the window.
            self._issue_armed = True

    # -- completion callback --------------------------------------------------

    def on_fill(self, request: LineRequest) -> None:
        """Line arrived: fill the line buffer and wake matching pieces."""
        line = request.line_address
        self.line_buffers.fill(line)
        for piece in self._ftq:
            if piece.line == line and piece.status in (_REQUESTED, _WAITING):
                piece.status = _READY
        # A buffer freed and a line became hot: rescan if the window
        # holds an unissued piece.
        issued = self._issued
        self._issue_armed = issued < self.ISSUE_WINDOW and issued < len(self._ftq)

    # -- ready/wake support -----------------------------------------------------

    def sleep_state(self, now: int) -> tuple[int | None, int]:
        """Whether (and until when) this front-end may leave the run list.

        Part of the scheduler's ready/wake contract (see
        :meth:`repro.engine.SimulationKernel.sleep`), read by the core's
        :class:`repro.machine.components.CoreUnit` when it plans its
        sleeps. Returns ``(wake, space_needed)``:

        * ``wake is None`` — the front-end could act at ``now``; it must
          stay on the run list.
        * otherwise every step in ``[now, wake)`` is a no-op provided no
          line fill arrives and the instruction queue's free space stays
          below ``space_needed``; :data:`~repro.engine.NEVER` means only
          a fill (or runtime wake) can rouse it, a concrete cycle covers
          time-based stalls (redirect penalty, iTLB walk).
        * ``space_needed`` — the exact IQ room that would enable action
          before ``wake``: a ready head piece awaiting extraction space,
          or a sync/end record awaiting the queue's drain (space equal
          to the full capacity). 0 when no amount of room helps. The
          caller must wake the front-end at the first commit that grows
          :meth:`iq_space` to this threshold — the cycle a stepped run's
          front-end would first act on.

        While the queue is empty and the core sleeps as a unit, the
        certified window additionally pins :meth:`stall_cause` — it can
        only change when an in-flight request changes lifecycle state,
        which the ports report through their ``stall_listener``.
        """
        if self.context.state is not _RUNNING:
            return (NEVER, 0)  # step() is a no-op until woken
        horizon = NEVER
        space_needed = 0
        # Extract: a ready head piece with IQ room would be consumed.
        if self._ftq:
            piece = self._ftq[0]
            if piece.status is _READY:
                if self.iq_space() >= piece.instructions:
                    return (None, 0)
                space_needed = piece.instructions
        # Issue: an armed scan runs (and may mutate counters) unless an
        # iTLB walk holds it back until a known cycle.
        if self._issue_armed:
            if now >= self._tlb_stall_until:
                return (None, 0)
            if self._tlb_stall_until < horizon:
                horizon = self._tlb_stall_until
        # FTQ fill: mirror step's fill gates exactly.
        if self._redirect_drain:
            if self._drained():
                return (None, 0)  # the redirect penalty would start now
            if not self._ftq:
                # The drain completes once the IQ is empty again.
                space_needed = self._iq_capacity_hint
        elif now < self._redirect_until:
            if self._redirect_until < horizon:
                horizon = self._redirect_until
        elif self._blocks < self.ftq_capacity:
            record = self.stream.peek()
            if isinstance(record, (SyncRecord, EndRecord)):
                if self._drained():
                    return (None, 0)  # the record would be consumed
                if not self._ftq:
                    space_needed = self._iq_capacity_hint
            else:
                return (None, 0)  # a record would be consumed this cycle
        return (horizon, space_needed)

    # -- redirect replay -------------------------------------------------------

    def redirect_replay_penalty(self) -> int | None:
        """Penalty length when the redirect trajectory is deterministic.

        The scheduler's redirect-replay window
        (:class:`repro.machine.components.CoreUnit`) may
        batch-settle this front-end across the whole drain + penalty
        span when the remaining trajectory is already decided: a
        mispredict drain is pending and the FTQ is empty, so no fills,
        extractions or trace records can intervene — the only action
        left before fetch resumes is the drain-complete transition
        itself, which :meth:`begin_redirect` replays. Returns the
        mispredict penalty in that state, ``None`` otherwise (the
        caller then falls back to the ordinary commit-replay window).
        """
        if (
            self._redirect_drain
            and not self._ftq
            and self.context.state is _RUNNING
        ):
            return self.mispredict_penalty
        return None

    def begin_redirect(self, now: int) -> None:
        """Replay the drain-complete transition of a stepped cycle ``now``.

        Clears the drain flag and starts the redirect (flush + refill)
        penalty. :meth:`step` calls it on the first cycle it observes a
        completed drain; the redirect-replay window calls it during
        settlement for the cycle after the batched drain commit, so
        fetch resumes at ``now + mispredict_penalty`` — the same cycle a
        stepped run's would.
        """
        self._redirect_drain = False
        self._redirect_until = now + self.mispredict_penalty

    # -- stall attribution ------------------------------------------------------

    def stall_cause(self, now: int) -> str:
        """CPI-stack component to charge when the back-end starves."""
        if self.context.state is _BLOCKED:
            return "sync"
        if self.context.state is _FINISHED:
            return "finished"
        if not self._ftq:
            if self._redirect_drain or now < self._redirect_until:
                return "branch"
            return "other"
        piece = self._ftq[0]
        if piece.status is _REQUESTED and piece.request is not None:
            return piece.request.stall_cause(now)
        if piece.status is _WAITING:
            return "icache_latency"
        if piece.status is _UNISSUED:
            return "icache_latency"
        return "other"
