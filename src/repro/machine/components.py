"""Per-core kernel units shared by every machine model (ready/wake).

The stepped engine's per-cycle order of operations (front-ends, shared
interconnects, back-ends) becomes kernel slots: each core's
:class:`CoreUnit` owns a *front phase* (the front-end's step) and a
*commit phase* (the back-end's), and each shared group's
:class:`GroupInterconnectComponent` one slot, registered as all front
phases, then the interconnects, then all commit phases. The units are
machine-neutral: any model built from cores, cache groups and shared
interconnects (the ACMP, the symmetric CMP) registers the same classes
and gets sleep/wake + clock jumps for free.

A unit schedules itself. At the end of its commit phase it decides both
of its sleeps from one look at the core and calls
:meth:`~repro.engine.SimulationKernel.sleep` for each. Only other
cores' commit phases step after it in the same cycle; they touch only
their own core and queue no bus traffic, so the decision reads the
cycle's final state. A front phase woken alone wakes its commit phase
too (settling any open window): the decision that puts the front phase
back to sleep runs in the commit phase, and every window assumes a
sleeping front-end. The sleep modes:

* **front-end-only sleep** — the back-end is committing (or about to),
  so it stays live and keeps exact per-cycle credit/stall accounting,
  while the stalled front-end leaves the run list. If the front-end's
  only enabler is instruction-queue room (``space_gated``), every live
  commit wakes it; otherwise a fill event or cycle timer does.
* **unit idle sleep** — the queue is empty and the front-end certified
  a quiescent window: both phases sleep, and the elided back-end
  cycles are batch-charged to the stall cause observed at the window
  start (:meth:`~repro.backend.backend.CommitEngine.idle_steps`). When
  an in-flight line request changes lifecycle state mid-window (bus
  grant, cache access), the port's ``stall_listener`` settles the old
  cause up to the transition cycle and re-pins — the piecewise charge
  matches a stepped run's per-cycle attribution exactly. A blocked core
  sleeps this way with the cause pinned to ``"sync"`` until the runtime
  coordinator's barrier/lock hand-off listener wakes it.
* **commit-replay sleep** — the front-end is quiescent and the queue is
  non-empty: every coming back-end cycle is a commit or sub-unit pacing
  step (never a stall) until the queue drains, and the whole trajectory
  is deterministic (no pushes, no IPC retargets while the front-end
  sleeps). Both phases sleep across a window bounded by the front-end's
  own wake (cycles-to-next-fetch-need: fills, redirect and iTLB timers,
  runtime hand-offs cut it short), the cycle a space-gated front-end
  must re-act, the cycle after the queue drains, and the deadlock
  watchdog's firing horizon; on wake the elided commits are
  batch-settled (:meth:`~repro.backend.backend.CommitEngine.
  replay_steps`) and the cycle of the last replayed commit is reported
  to the kernel (:meth:`~repro.engine.SimulationKernel.note_progress`)
  so the watchdog still fires at the stepped engine's exact cycle. The
  queue count *changes* inside the window, so cores whose ``iq_count``
  is observed cross-core (the ICOUNT arbiter's urgency callback) never
  open one — they fall back to the pacing window below.
* **redirect-replay sleep** — a mispredicted branch is draining and the
  FTQ is already empty: nothing can fill, issue or extract until fetch
  resumes, so the remaining trajectory is fully decided — commits to
  the exact drain cycle (:meth:`~repro.backend.backend.CommitEngine.
  drain_horizon`), the drain-complete transition the front-end would
  perform one cycle later (:meth:`~repro.frontend.engine.FetchEngine.
  begin_redirect` replays it), then pure ``"branch"`` stalls until the
  mispredict penalty elapses. Both phases sleep to the fetch-resume
  cycle and the whole span settles in one batch, bounded by the same
  guards as commit replay (shared-ICOUNT observation disables it, the
  watchdog's firing horizon caps it, the front-end's own wake — iTLB
  timers — cuts it short). The unit counts the elided penalty stalls
  in :attr:`CoreUnit.redirect_cycles_batched` (and the cycles commit
  replay settles in :attr:`CoreUnit.commit_cycles_batched`).
* **unit pacing sleep** — the queue is non-empty but the commit credit
  stays below 1.0 until a known cycle
  (:meth:`~repro.backend.backend.CommitEngine.cycles_to_next_commit`);
  the elided cycles are pure sub-unit pacing
  (:meth:`~repro.backend.backend.CommitEngine.pacing_steps`) and the
  core wakes on the commit cycle. The queue count is constant inside
  the window, so cross-core observers (the ICOUNT arbiter's urgency
  callback) always read current state — the fallback that keeps
  ICOUNT-arbitrated cores elidable.

A finished core sleeps without a window — a stepped run does nothing
for it either. Every mode is conservative: a unit that cannot prove
quiescence simply stays on the run list, which is always equivalent
(its steps are no-ops, exactly as in the reference engine).

The planning walks (``cycles_to_next_commit``, ``replay_horizon``,
``drain_horizon``) and both batched settlements (commit replay and the
redirect replay's phase-1 drain, via ``replay_steps``) all reduce to the
:class:`~repro.backend.backend.CommitEngine`'s deterministic float
credit trajectory, and each walk runs as one
:func:`~repro.backend.backend.replay_walk` call (the same float
additions a stepped run performs). The walk is a pure function of its
arguments, so the back-end serves repeats from a bounded memo
(:data:`repro.backend.backend.memo_replay_walk`).

:class:`GroupInterconnectComponent` additionally batches **busy-cycle
accounting**: a bus occupied by an in-flight transfer does nothing per
cycle except count itself busy, so the component sleeps across the
known busy horizon (or indefinitely when no request is queued) and the
elided busy cycles are charged in one step on wake-up — or at result
collection for a transfer still draining at the end of the run. The
component counts the busy steps elided this way in
:attr:`GroupInterconnectComponent.busy_steps_batched`.

These batched counters live only on the components that count them;
:meth:`repro.machine.simulator.SystemSimulator.run_metrics` sums them
into the ``kernel.*`` metrics beside the kernel's own
:class:`~repro.engine.kernel.KernelStats`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import NEVER
from repro.engine.kernel import MIN_TIMER_NAP
from repro.runtime.threads import ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.engine import SimulationKernel
    from repro.frontend.ports import SharedIcacheGroup
    from repro.machine.system import Core

#: Thread states bound to module globals: the unit compares against
#: them once per core per cycle, and a global load is about four times
#: cheaper than an Enum attribute.
_RUNNING = ThreadState.RUNNING
_BLOCKED = ThreadState.BLOCKED

#: Commit-phase window kinds.
_NO_WINDOW = "none"
_IDLE = "idle"
_PACING = "pacing"
_REPLAY = "replay"
_REDIRECT = "redirect"

#: Longest commit-replay look-ahead (cycles). Bounds the planning walk;
#: a window that neither drains nor hits a wake inside it simply ends
#: there and re-plans.
REPLAY_CAP = 4096


class CoreUnit:
    """One core's front phase and commit phase, scheduling itself."""

    __slots__ = (
        "core",
        "frontend",
        "backend",
        "context",
        "front_slot",
        "commit_slot",
        "window",
        "settled_to",
        "cause",
        "front_space_needed",
        "front_asleep",
        "commit_asleep",
        "iq_observed",
        "commit_cycles_batched",
        "redirect_cycles_batched",
        "trace_window",
        "_kernel",
        "_plans",
        "_stall_cause",
        "_redirect_boundary",
    )

    def __init__(self, core: Core, kernel: SimulationKernel) -> None:
        self.core = core
        self.frontend = core.frontend
        self.backend = core.backend
        self.context = core.context
        self._kernel = kernel
        #: The reference engine steps every slot every cycle: plan
        #: nothing there.
        self._plans = kernel.cycle_skip
        self._stall_cause = core.frontend.stall_cause
        #: Kernel slots, assigned when the system registers the phases.
        self.front_slot = -1
        self.commit_slot = -1
        #: Commit-phase window; not _NO_WINDOW implies the commit phase
        #: sleeps and owes batched cycles.
        self.window = _NO_WINDOW
        self.settled_to = 0
        self.cause = "other"
        #: IQ room that lets a lone-sleeping front-end act again; the
        #: live back-end wakes it at the first commit reaching it.
        self.front_space_needed = 0
        self.front_asleep = False
        self.commit_asleep = False
        #: True when this core's ``iq_count`` is read by another
        #: component mid-cycle (the ICOUNT arbiter's urgency callback):
        #: commit-replay windows, whose elided commits leave the queue
        #: count stale until settlement, are then disabled in favour of
        #: constant-count pacing windows. Set by the system wiring.
        self.iq_observed = False
        #: Back-end steps elided through commit-replay windows.
        self.commit_cycles_batched = 0
        #: Redirect-penalty stall cycles elided through redirect-replay
        #: windows (the idle phase past the batched drain commit).
        self.redirect_cycles_batched = 0
        #: Injected by the system wiring only when timeline tracing is
        #: on (None otherwise): ``trace_window(kind, start, cycles)``
        #: records a settled replay window span on this core's track.
        self.trace_window: Callable[[str, int, int], None] | None = None
        #: Absolute cycle a redirect-replay window's drain-complete
        #: transition happens at (the cycle after the drain commit).
        self._redirect_boundary = 0

    # -- the commit phase --------------------------------------------------

    def commit_step(self, now: int) -> int:
        """Commit for this cycle, then plan both phases' sleeps."""
        state = self.context.state
        committed = 0
        if state is _RUNNING:
            backend = self.backend
            # Pass the attribution lazily: it is only evaluated on a
            # stall, so committing cycles skip the FTQ walk.
            committed = backend.step(now, self._stall_cause)
            if committed:
                needed = self.front_space_needed
                if needed and backend.iq_space() >= needed:
                    # The commit freed the room the sleeping front-end
                    # waits for; it re-enters the run list and acts next
                    # cycle, exactly when a stepped run's would.
                    self._kernel.wake(self.front_slot)
            if (
                backend.iq_count
                and not self.frontend.idle_step
                and not self.front_asleep
            ):
                # The front-end just did work and the back-end is
                # draining: nothing here sleeps long enough to pay for
                # the full probe. A front-end already off the run list
                # is probed regardless — its last recorded step is
                # stale, and the draining back-end behind it is exactly
                # what the commit-replay window elides. (Empty-queue
                # cores are always probed: their idle windows are what
                # empties the ready set and lets the clock jump, and a
                # one-cycle-late onset there would cost a skipped cycle
                # per window.)
                return committed
        elif state is _BLOCKED:
            self.backend.step(now, "sync")
        if self._plans:
            self._plan(now)
        return committed

    def _plan(self, now: int) -> None:
        state = self.context.state
        if state is _RUNNING:
            frontend = self.frontend
            backend = self.backend
            wake_at, space_needed = frontend.sleep_state(now + 1)
            if wake_at is None:
                return  # the front-end acts next cycle
            if not backend.iq_count:
                self._sleep_both(
                    now, wake_at, _IDLE, frontend.stall_cause(now + 1)
                )
                return
            if not self.iq_observed:
                # Commit replay: with the front-end quiescent the whole
                # commit trajectory is deterministic, so both phases
                # sleep across it and the elided commits settle in one
                # batch on wake. The window never outlives the
                # front-end's own wake (a stepped front-end could act
                # there), the cycle a space-gated front-end must
                # re-act, the drain point (the next cycle would stall,
                # which needs live attribution), or the watchdog's
                # firing cycle (settlement must note elided progress
                # before the firing check).
                kernel = self._kernel
                guard = kernel.last_progress + kernel.stall_limit + 1
                bound = (wake_at if wake_at < guard else guard) - now
                if bound >= MIN_TIMER_NAP:
                    # Redirect replay: a mispredict drain with an empty
                    # FTQ pins the whole remaining trajectory — commits
                    # to the drain, one drain-complete transition, then
                    # pure "branch" stalls until the penalty elapses.
                    # Fuse all three into one window ending at the
                    # fetch-resume cycle; the drain must land
                    # unambiguously inside the bound so the transition
                    # (and the batched progress note) settles before
                    # the watchdog's firing check.
                    penalty = frontend.redirect_replay_penalty()
                    if penalty is not None:
                        drain_cap = min(bound - 1 - penalty, REPLAY_CAP)
                        if drain_cap >= 1:
                            drain = backend.drain_horizon(cap=drain_cap)
                            if drain is not None:
                                resume = drain + 1 + penalty
                                if resume >= MIN_TIMER_NAP:
                                    self._redirect_boundary = now + drain + 1
                                    self._sleep_both(
                                        now, now + resume, _REDIRECT
                                    )
                                    return
                    # replay_horizon may return cap + 1 (a drain or
                    # space trigger on the last walked cycle), so the
                    # cap stays one short of the bound.
                    horizon = backend.replay_horizon(
                        space_needed, cap=min(bound - 1, REPLAY_CAP)
                    )
                    if horizon is not None and horizon >= MIN_TIMER_NAP:
                        self._sleep_both(now, now + horizon, _REPLAY)
                        return
            else:
                ahead = backend.cycles_to_next_commit()
                if ahead is not None and ahead >= MIN_TIMER_NAP:
                    # Unit pacing nap until the commit cycle: the queue
                    # count stays constant, so the ICOUNT urgency
                    # callback observing this core always reads current
                    # state. Commits are the only source of the queue
                    # room the space gates wait for, and none happens
                    # before the wake.
                    wake = now + ahead
                    self._sleep_both(
                        now, wake if wake < wake_at else wake_at, _PACING
                    )
                    return
            # The back-end commits imminently: keep it live (exact
            # per-cycle credit and stall attribution); it wakes a
            # space-gated front-end at the commit whose freed room
            # first reaches the needed threshold.
            if not self.front_asleep and wake_at >= now + MIN_TIMER_NAP:
                self.front_asleep = True
                self.front_space_needed = space_needed
                self._kernel.sleep(self.front_slot, wake_at)
            return
        if state is _BLOCKED:
            # Blocked implies a drained pipeline (empty FTQ and IQ);
            # every elided back-end cycle charges "sync", and the
            # runtime coordinator wakes us on the hand-off.
            self._sleep_both(now, NEVER, _IDLE, "sync")
            return
        # A stepped run does nothing for a finished core either.
        self._sleep_both(now, NEVER, _NO_WINDOW)

    def _sleep_both(
        self, now: int, wake: int, window: str, cause: str = "other"
    ) -> None:
        """Put both phases to sleep until ``wake``, opening ``window``."""
        if wake < now + MIN_TIMER_NAP:
            return  # too short to pay for the bookkeeping
        kernel = self._kernel
        self.window = window
        self.cause = cause
        self.settled_to = now + 1
        self.commit_asleep = True
        if self.front_asleep:
            kernel.sleep(self.commit_slot, wake)
        else:
            # One timer serves both phases: the front phase wakes first
            # (it sits earlier in the run order) and wakes this one.
            self.front_asleep = True
            self.front_space_needed = 0
            kernel.sleep(self.front_slot, wake)
            kernel.sleep(self.commit_slot, NEVER)

    # -- wake hooks ----------------------------------------------------------

    def wake(self) -> None:
        """Return both phases to the run list (a fill, a hand-off)."""
        self._kernel.wake(self.front_slot)
        self._kernel.wake(self.commit_slot)

    def front_woke(self, now: int) -> None:
        self.front_asleep = False
        self.front_space_needed = 0
        if self.commit_asleep:
            # Only the commit phase plans, and its windows assume a
            # sleeping front-end: never leave the front phase awake
            # behind a sleeping commit phase. (This is also how a
            # window both phases entered together ends on time.)
            self._kernel.wake(self.commit_slot)

    def commit_woke(self, now: int) -> None:
        self.commit_asleep = False
        window = self.window
        self.settle(now)
        self.window = _NO_WINDOW
        if window is _REPLAY and self.front_space_needed:
            # The front-end slept on queue room before this window
            # opened around it. A live back-end would have woken it at
            # the commit whose freed room first reached the threshold;
            # the replay wake lands one cycle after that commit by
            # construction, so waking the front-end now has it step on
            # exactly the cycle a stepped run's would.
            if self.backend.iq_space() >= self.front_space_needed:
                self._kernel.wake(self.front_slot)
        elif window is _REDIRECT and self.front_asleep:
            # The window outlived the front-end's own wake promise (the
            # drain-complete transition was replayed on its behalf), so
            # on any close — the planned fetch-resume cycle or an early
            # wake — hand control back to a live front-end and let it
            # re-plan; a spurious wake is merely a no-op step.
            self._kernel.wake(self.front_slot)

    # -- batched accounting ----------------------------------------------------

    def settle(self, now: int) -> None:
        """Batch-account the elided back-end cycles ``[settled_to, now)``."""
        if self.window is _NO_WINDOW or now <= self.settled_to:
            return
        cycles = now - self.settled_to
        if self.window is _IDLE:
            self.backend.idle_steps(cycles, self.cause)
        elif self.window is _REPLAY:
            _committed, last_commit = self.backend.replay_steps(cycles)
            self.commit_cycles_batched += cycles
            if self.trace_window is not None:
                self.trace_window("commit", self.settled_to, cycles)
            if last_commit is not None:
                # The watchdog must see progress at the cycle the last
                # elided commit actually happened (a stepped run reset
                # it there), not at the settlement cycle.
                self._kernel.note_progress(self.settled_to + last_commit - 1)
        elif self.window is _REDIRECT:
            # Phase 1 — commits/pacing up to the drain: the boundary is
            # the cycle after the planned drain commit, so the span up
            # to it never crosses a stall.
            boundary = self._redirect_boundary
            cut = min(now, boundary)
            if cut > self.settled_to:
                span = cut - self.settled_to
                _committed, last_commit = self.backend.replay_steps(span)
                self.commit_cycles_batched += span
                if self.trace_window is not None:
                    self.trace_window("commit", self.settled_to, span)
                if last_commit is not None:
                    self._kernel.note_progress(
                        self.settled_to + last_commit - 1
                    )
                self.settled_to = cut
            if now >= boundary:
                # Phase 2 — the drain-complete transition a stepped
                # front-end performs at the boundary cycle, then pure
                # "branch" stalls until the penalty elapses (an early
                # wake settles the prefix; the cause stays pinned).
                self.frontend.begin_redirect(boundary)
                idle = now - boundary
                if idle > 0:
                    self.backend.idle_steps(idle, "branch")
                    self.redirect_cycles_batched += idle
                    if self.trace_window is not None:
                        self.trace_window("redirect", boundary, idle)
        else:
            self.backend.pacing_steps(cycles)
        self.settled_to = now

    def stall_transition(self, now: int) -> None:
        """An in-flight request changed lifecycle state at ``now``.

        Settles an idle window's old cause up to the transition and
        re-pins to the cause a stepped back-end would charge from
        ``now`` on. (Pacing windows charge no stalls, and a live
        back-end attributes per cycle anyway.)
        """
        if self.window is not _IDLE:
            return
        self.settle(now)
        if self.context.state is _RUNNING:
            self.cause = self.frontend.stall_cause(now)


class GroupInterconnectComponent:
    """One shared group's I-interconnect (arbitration and grants)."""

    __slots__ = ("group", "slot", "busy_steps_batched", "_kernel", "_plans")

    def __init__(self, group: SharedIcacheGroup, kernel: SimulationKernel) -> None:
        self.group = group
        self._kernel = kernel
        self._plans = kernel.cycle_skip
        #: Busy-only interconnect steps elided by sleeping across a
        #: transfer's known busy horizon (batch-accounted on wake).
        self.busy_steps_batched = 0
        #: Kernel slot, assigned when the system registers the step.
        self.slot = -1

    def step(self, now: int) -> None:
        group = self.group
        group.step(now)
        if not self._plans:
            return
        # An interconnect with no queued request grants nothing: a
        # transfer still draining only counts itself busy, which the
        # batched settlement reproduces, so the component sleeps until
        # a new request fires the group's activity listener. With
        # queued requests, the earliest possible grant is the earliest
        # bus-busy horizon: nothing observable happens before it.
        # Commit phases step after this one but queue no requests, so
        # the plan reads the cycle's final state.
        wake = group.wake_horizon(now + 1)
        if wake is not None and wake >= now + MIN_TIMER_NAP:
            self._kernel.sleep(self.slot, wake)

    def woke(self, now: int) -> None:
        # Charge the busy cycles every bus accrued while this component
        # slept — exactly the per-cycle counts a stepped run made.
        self.busy_steps_batched += self.group.settle_busy(now)
