"""Per-core kernel components shared by every machine model (ready/wake).

The stepped engine's per-cycle order of operations (front-ends, shared
interconnects, back-ends) becomes one
:class:`~repro.engine.kernel.ScheduledComponent` per core front-end,
per shared interconnect group and per core back-end, registered with
the :class:`~repro.engine.SimulationKernel` in that order. The
components are machine-neutral: any model built from cores, cache
groups and shared interconnects (the ACMP, the symmetric CMP) registers
the same classes and gets sleep/wake + clock jumps for free.

The two components of one core share a :class:`CoreScheduleState`,
which derives both sleep plans from one decision per cycle:

* **front-end-only sleep** — the back-end is committing (or about to),
  so it stays live and keeps exact per-cycle credit/stall accounting,
  while the stalled front-end leaves the run list. If the front-end's
  only enabler is instruction-queue room (``space_gated``), every live
  commit wakes it; otherwise a fill event or cycle timer does.
* **unit idle sleep** — the queue is empty and the front-end certified
  a quiescent window: both components sleep, and the elided back-end
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
  sleeps). Both components sleep across a window bounded by the
  front-end's own wake (cycles-to-next-fetch-need: fills, redirect and
  iTLB timers, runtime hand-offs cut it short), the cycle a space-gated
  front-end must re-act, the cycle after the queue drains, and the
  deadlock watchdog's firing horizon; on wake the elided commits are
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
  mispredict penalty elapses. Both components sleep to the fetch-resume
  cycle and the whole span settles in one batch, bounded by the same
  guards as commit replay (shared-ICOUNT observation disables it, the
  watchdog's firing horizon caps it, the front-end's own wake — iTLB
  timers — cuts it short). The elided penalty stalls are surfaced
  through :attr:`~repro.engine.kernel.KernelStats.
  redirect_cycles_batched`.
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
for it either. Every mode is conservative: a component that cannot
prove quiescence simply stays on the run list, which is always
equivalent (its steps are no-ops, exactly as in the reference engine).

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
count of busy steps elided this way is surfaced through
:attr:`~repro.engine.kernel.KernelStats.interconnect_busy_batched`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import NEVER
from repro.engine.kernel import MIN_TIMER_NAP
from repro.runtime.threads import ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable

    from repro.frontend.ports import SharedIcacheGroup
    from repro.machine.system import Core

#: Thread states bound to module globals: the schedule state and the
#: commit component compare against them once per core per cycle, and
#: a global load is about four times cheaper than an Enum attribute.
_RUNNING = ThreadState.RUNNING
_BLOCKED = ThreadState.BLOCKED
_FINISHED = ThreadState.FINISHED

#: CoreScheduleState back-end window kinds.
_NO_WINDOW = "none"
_IDLE = "idle"
_PACING = "pacing"
_REPLAY = "replay"
_REDIRECT = "redirect"

#: Longest commit-replay look-ahead (cycles). Bounds the planning walk;
#: a window that neither drains nor hits a wake inside it simply ends
#: there and re-plans.
REPLAY_CAP = 4096


class CoreScheduleState:
    """Shared sleep/wake bookkeeping for one core's two components."""

    __slots__ = (
        "core",
        "window",
        "settled_to",
        "cause",
        "front_space_needed",
        "front_asleep",
        "iq_observed",
        "wake_front",
        "note_progress",
        "progress_guard",
        "commit_cycles_batched",
        "redirect_cycles_batched",
        "trace_window",
        "_plan_cycle",
        "_plans",
        "_pending_window",
        "_pending_cause",
        "_pending_space",
        "_redirect_boundary",
        "_pending_redirect_boundary",
    )

    def __init__(self, core: Core) -> None:
        self.core = core
        #: Back-end accounting window; not _NO_WINDOW implies the
        #: commit component is deregistered and owes batched cycles.
        self.window = _NO_WINDOW
        self.settled_to = 0
        self.cause = "other"
        #: IQ room that lets a lone-sleeping front-end act again; the
        #: live back-end wakes it at the first commit reaching it.
        self.front_space_needed = 0
        #: Whether the front-end component is currently deregistered
        #: (kept by its on_sleep/on_wake hooks).
        self.front_asleep = False
        #: True when this core's ``iq_count`` is read by another
        #: component mid-cycle (the ICOUNT arbiter's urgency callback):
        #: commit-replay windows, whose elided commits leave the queue
        #: count stale until settlement, are then disabled in favour of
        #: constant-count pacing windows. Set by the system wiring.
        self.iq_observed = False
        #: Injected by the system wiring: wakes the front-end component.
        self.wake_front: Callable[[], None] | None = None
        #: Injected by the system wiring: reports the cycle of the last
        #: batch-replayed commit to the kernel's deadlock watchdog.
        self.note_progress: Callable[[int], None] = lambda cycle: None
        #: Injected by the system wiring: the cycle the kernel's
        #: watchdog would fire at; replay windows never extend past it,
        #: so their settlement (which notes elided progress) always
        #: lands before the firing check.
        self.progress_guard: Callable[[], int] = lambda: NEVER
        #: Back-end steps elided through commit-replay windows.
        self.commit_cycles_batched = 0
        #: Redirect-penalty stall cycles elided through redirect-replay
        #: windows (the idle phase past the batched drain commit).
        self.redirect_cycles_batched = 0
        #: Injected by the system wiring only when timeline tracing is
        #: on (None otherwise): ``trace_window(kind, start, cycles)``
        #: records a settled replay window span on this core's track.
        self.trace_window: Callable[[str, int, int], None] | None = None
        self._plan_cycle = -1
        self._plans: tuple[int | None, int | None] = (None, None)
        self._pending_window = _NO_WINDOW
        self._pending_cause = "other"
        self._pending_space = 0
        #: Absolute cycle a redirect-replay window's drain-complete
        #: transition happens at (the cycle after the drain commit).
        self._redirect_boundary = 0
        self._pending_redirect_boundary = 0

    # -- sleep decision (once per core per cycle) --------------------------
    # The two plan accessors inline the per-cycle memo: the kernel
    # probes both of a core's components each cycle, and this pair of
    # methods is bound directly as their ``sleep_plan`` attributes, so
    # the hot probe path is a single call deep.

    def front_plan(self, now: int) -> int | None:
        if self._plan_cycle != now:
            self._plan_cycle = now
            self._plans = self._decide(now)
        return self._plans[0]

    def commit_plan(self, now: int) -> int | None:
        if self._plan_cycle != now:
            self._plan_cycle = now
            self._plans = self._decide(now)
        return self._plans[1]

    def _decide(self, now: int) -> tuple[int | None, int | None]:
        core = self.core
        state = core.context.state
        if state is _RUNNING:
            frontend = core.frontend
            backend = core.backend
            if (
                backend.iq_count
                and not frontend.idle_step
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
                return (None, None)
            wake_at, space_needed = frontend.sleep_state(now + 1)
            if wake_at is None:
                return (None, None)  # the front-end acts next cycle
            if backend.iq_count:
                if not self.iq_observed:
                    # Commit replay: with the front-end quiescent the
                    # whole commit trajectory is deterministic, so both
                    # components sleep across it and the elided commits
                    # settle in one batch on wake. The window never
                    # outlives the front-end's own wake (a stepped
                    # front-end could act there), the cycle a
                    # space-gated front-end must re-act, the drain
                    # point (the next cycle would stall, which needs
                    # live attribution), or the watchdog's firing cycle
                    # (settlement must note elided progress before the
                    # firing check).
                    bound = min(wake_at, self.progress_guard()) - now
                    if bound >= MIN_TIMER_NAP:
                        # Redirect replay: a mispredict drain with an
                        # empty FTQ pins the whole remaining trajectory
                        # — commits to the drain, one drain-complete
                        # transition, then pure "branch" stalls until
                        # the penalty elapses. Fuse all three into one
                        # window ending at the fetch-resume cycle; the
                        # drain must land unambiguously inside the
                        # bound so the transition (and the batched
                        # progress note) settles before the watchdog's
                        # firing check.
                        penalty = frontend.redirect_replay_penalty()
                        if penalty is not None:
                            drain_cap = min(bound - 1 - penalty, REPLAY_CAP)
                            if drain_cap >= 1:
                                drain = backend.drain_horizon(cap=drain_cap)
                                if drain is not None:
                                    resume = drain + 1 + penalty
                                    if resume >= MIN_TIMER_NAP:
                                        self._pending_window = _REDIRECT
                                        self._pending_space = 0
                                        self._pending_redirect_boundary = (
                                            now + drain + 1
                                        )
                                        wake = now + resume
                                        return (wake, wake)
                        # replay_horizon may return cap + 1 (a drain or
                        # space trigger on the last walked cycle), so
                        # the cap stays one short of the bound.
                        horizon = backend.replay_horizon(
                            space_needed, cap=min(bound - 1, REPLAY_CAP)
                        )
                        if horizon is not None and horizon >= MIN_TIMER_NAP:
                            self._pending_window = _REPLAY
                            self._pending_space = 0
                            wake = now + horizon
                            return (wake, wake)
                else:
                    ahead = backend.cycles_to_next_commit()
                    if ahead is not None and ahead >= MIN_TIMER_NAP:
                        # Unit pacing nap until the commit cycle: the
                        # queue count stays constant, so the ICOUNT
                        # urgency callback observing this core always
                        # reads current state. Commits are the only
                        # source of the queue room the space gates wait
                        # for, and none happens before the wake.
                        self._pending_window = _PACING
                        self._pending_space = 0
                        wake_at = min(wake_at, now + ahead)
                        return (wake_at, wake_at)
                # The back-end commits imminently: keep it live (exact
                # per-cycle credit and stall attribution); it wakes a
                # space-gated front-end at the commit whose freed room
                # first reaches the needed threshold.
                self._pending_window = _NO_WINDOW
                self._pending_space = space_needed
                return (wake_at, None)
            self._pending_window = _IDLE
            self._pending_cause = frontend.stall_cause(now + 1)
            self._pending_space = 0
            return (wake_at, wake_at)
        if state is _BLOCKED:
            # Blocked implies a drained pipeline (empty FTQ and IQ);
            # every elided back-end cycle charges "sync", and the
            # runtime coordinator wakes us on the hand-off.
            self._pending_window = _IDLE
            self._pending_cause = "sync"
            self._pending_space = 0
            return (NEVER, NEVER)
        # A stepped run does nothing for a finished core either.
        self._pending_window = _NO_WINDOW
        self._pending_space = 0
        return (NEVER, NEVER)

    # -- back-end window lifecycle (driven by the commit component) --------

    def commit_slept(self, now: int) -> None:
        self.window = self._pending_window
        self.cause = self._pending_cause
        self._redirect_boundary = self._pending_redirect_boundary
        self.settled_to = now + 1

    def commit_woke(self, now: int) -> None:
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
            needed = self.front_space_needed
            if self.core.backend.iq_space() >= needed and self.wake_front:
                self.wake_front()
        elif window is _REDIRECT:
            # The window outlived the front-end's own wake promise (the
            # drain-complete transition was replayed on its behalf), so
            # on any close — the planned fetch-resume cycle or an early
            # wake — hand control back to a live front-end and let it
            # re-plan; a spurious wake is merely a no-op step.
            if self.front_asleep and self.wake_front:
                self.wake_front()

    def settle(self, now: int) -> None:
        """Batch-account the elided back-end cycles ``[settled_to, now)``."""
        if self.window is _NO_WINDOW or now <= self.settled_to:
            return
        cycles = now - self.settled_to
        if self.window is _IDLE:
            self.core.backend.idle_steps(cycles, self.cause)
        elif self.window is _REPLAY:
            _committed, last_commit = self.core.backend.replay_steps(cycles)
            self.commit_cycles_batched += cycles
            if self.trace_window is not None:
                self.trace_window("commit", self.settled_to, cycles)
            if last_commit is not None:
                # The watchdog must see progress at the cycle the last
                # elided commit actually happened (a stepped run reset
                # it there), not at the settlement cycle.
                self.note_progress(self.settled_to + last_commit - 1)
        elif self.window is _REDIRECT:
            # Phase 1 — commits/pacing up to the drain: the boundary is
            # the cycle after the planned drain commit, so the span up
            # to it never crosses a stall.
            boundary = self._redirect_boundary
            cut = min(now, boundary)
            if cut > self.settled_to:
                span = cut - self.settled_to
                _committed, last_commit = self.core.backend.replay_steps(span)
                self.commit_cycles_batched += span
                if self.trace_window is not None:
                    self.trace_window("commit", self.settled_to, span)
                if last_commit is not None:
                    self.note_progress(self.settled_to + last_commit - 1)
                self.settled_to = cut
            if now >= boundary:
                # Phase 2 — the drain-complete transition a stepped
                # front-end performs at the boundary cycle, then pure
                # "branch" stalls until the penalty elapses (an early
                # wake settles the prefix; the cause stays pinned).
                self.core.frontend.begin_redirect(boundary)
                idle = now - boundary
                if idle > 0:
                    self.core.backend.idle_steps(idle, "branch")
                    self.redirect_cycles_batched += idle
                    if self.trace_window is not None:
                        self.trace_window("redirect", boundary, idle)
        else:
            self.core.backend.pacing_steps(cycles)
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
        if self.core.context.state is _RUNNING:
            self.cause = self.core.frontend.stall_cause(now)


class CoreFrontendComponent:
    """One core's front-end (FTQ fill, issue, extract)."""

    __slots__ = ("core", "sched", "sleep_plan")

    def __init__(self, core: Core, sched: CoreScheduleState) -> None:
        self.core = core
        self.sched = sched
        #: Probed by the kernel every executed cycle: bound straight to
        #: the controller to keep the hot path one call deep.
        self.sleep_plan = sched.front_plan

    def step(self, now: int) -> int:
        self.core.frontend.step(now)  # no-op unless RUNNING
        return 0

    def on_sleep(self, now: int) -> None:
        self.sched.front_space_needed = self.sched._pending_space
        self.sched.front_asleep = True

    def on_wake(self, now: int) -> None:
        self.sched.front_space_needed = 0
        self.sched.front_asleep = False


class GroupInterconnectComponent:
    """One shared group's I-interconnect (arbitration and grants)."""

    __slots__ = ("group", "busy_steps_batched")

    def __init__(self, group: SharedIcacheGroup) -> None:
        self.group = group
        #: Busy-only interconnect steps elided by sleeping across a
        #: transfer's known busy horizon (batch-accounted on wake).
        self.busy_steps_batched = 0

    def sleep_plan(self, now: int) -> int | None:
        # An interconnect with no queued request grants nothing: a
        # transfer still draining only counts itself busy, which the
        # batched settlement reproduces, so the component sleeps until
        # a new request fires the group's activity listener. With
        # queued requests, the earliest possible grant is the earliest
        # bus-busy horizon: nothing observable happens before it.
        return self.group.wake_horizon(now + 1)

    def step(self, now: int) -> int:
        self.group.step(now)
        return 0

    def on_sleep(self, now: int) -> None:
        pass

    def on_wake(self, now: int) -> None:
        # Charge the busy cycles every bus accrued while this component
        # slept — exactly the per-cycle counts a stepped run made.
        self.busy_steps_batched += self.group.settle_busy(now)


class CoreCommitComponent:
    """One core's back-end; its step reports committed instructions."""

    __slots__ = ("core", "sched", "sleep_plan")

    def __init__(self, core: Core, sched: CoreScheduleState) -> None:
        self.core = core
        self.sched = sched
        self.sleep_plan = sched.commit_plan

    def step(self, now: int) -> int:
        core = self.core
        state = core.context.state
        if state is _FINISHED:
            return 0
        if state is _BLOCKED:
            core.backend.step(now, "sync")
            return 0
        # Pass the attribution lazily: it is only evaluated on a stall,
        # so committing cycles skip the FTQ walk.
        backend = core.backend
        committed = backend.step(now, core.frontend.stall_cause)
        if committed:
            sched = self.sched
            needed = sched.front_space_needed
            if needed and backend.iq_space() >= needed:
                # The commit freed the room the sleeping front-end
                # waits for; it re-enters the run list and acts next
                # cycle, exactly when a stepped run's would.
                sched.wake_front()
        return committed

    def on_sleep(self, now: int) -> None:
        self.sched.commit_slept(now)

    def on_wake(self, now: int) -> None:
        self.sched.commit_woke(now)
