"""The simulation main loop: an event-driven ready/wake scheduler.

:class:`SimulationKernel` owns the :class:`~repro.engine.clock.Clock`,
the :class:`~repro.engine.events.EventQueue` and an ordered list of
*slots*, each a step function registered with
:meth:`SimulationKernel.register`. Slots are held in a *ready set*; per
simulated cycle the kernel:

1. wakes every slot whose armed cycle timer is due;
2. checks the registered finish condition;
3. delivers every event due at the current cycle (event callbacks may
   wake sleeping slots);
4. steps each **ready** slot in registration order, noting whether any
   of them reported progress (committed instructions);
5. arms the deadlock watchdog when no progress was made.

**Sleeping and waking.** A slot that cannot act — a front-end waiting
on a line fill, a back-end with an empty instruction queue, an idle
interconnect, a core blocked on synchronisation — leaves the run list
through :meth:`SimulationKernel.sleep`, called from inside a step of
the current cycle (its own, or a later one of the same component that
owns it): a concrete wake-up cycle (redirect penalty, iTLB walk, commit
pacing) arms a cycle timer; :data:`NEVER` means only an explicit
:meth:`SimulationKernel.wake` (a fill completion, a barrier release)
can rouse it. While asleep, a slot is simply not on the run list; its
``on_wake`` hook runs before it next steps, so the component can
batch-account the cycles it was never stepped for. A slot may only be
put to sleep by the component that owns it, after every step of that
component in the cycle, and no step later in the same cycle may change
what that decision read — any other cross-component effect must call
:meth:`SimulationKernel.wake`.

**Clock jumping.** When the ready set is empty, nothing can change
until the next wake-up: the clock jumps straight to the earliest of the
next scheduled event, the earliest armed timer and the deadlock
watchdog's firing cycle. This is the degenerate case of the scheduler —
the old "every component idle" global gate — and no longer requires the
whole machine to quiesce at once for per-component work to be elided.

The contract is exact equivalence: a scheduled run must produce
bit-identical results to the same run stepped cycle by cycle with
``cycle_skip=False``, including :class:`DeadlockError` firing at the
same cycle. A slot not in the ready set must therefore be a provable
no-op for every elided cycle (modulo the batched accounting its
``on_wake`` performs).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from repro.engine.clock import Clock
from repro.engine.events import EventQueue
from repro.errors import DeadlockError, SimulationError
from repro.obs.recorder import tracer as _active_tracer
from repro.obs.timeline import SIM_PID

#: Sleep sentinel: "nothing but an explicit wake can rouse me".
NEVER = 1 << 62

#: Cycles without any progress before declaring a deadlock (the same
#: window the seed engine used).
DEFAULT_STALL_LIMIT = 200_000

#: Shortest timer nap worth sleeping for. Below this, the bookkeeping
#: (heap entries, wake transitions, re-planning) costs more than the
#: steps it elides, so a component simply stays on the run list —
#: always equivalent, since a ready slot that cannot act steps as a
#: no-op exactly like the reference engine. Event-only (:data:`NEVER`)
#: sleeps are exempt: their naps are unbounded.
MIN_TIMER_NAP = 4

#: A slot's per-cycle work: ``step(now)`` returns a truthy value when
#: it made progress (committed instructions) this cycle.
Step = Callable[[int], "int | None"]


@dataclass
class KernelStats:
    """Main-loop accounting, exposed for benchmarks and tests."""

    cycles_executed: int = 0
    cycles_skipped: int = 0
    skips: int = 0
    events_run: int = 0
    #: Slot step() calls actually made.
    component_steps: int = 0
    #: Step() calls elided on executed cycles because the slot was
    #: asleep (cycles jumped over are counted in ``cycles_skipped``).
    component_steps_avoided: int = 0
    #: Transitions from asleep back into the ready set.
    wakes: int = 0

    @property
    def total_cycles(self) -> int:
        return self.cycles_executed + self.cycles_skipped

    @property
    def skipped_fraction(self) -> float:
        """Share of simulated cycles covered by clock jumps."""
        total = self.total_cycles
        return self.cycles_skipped / total if total else 0.0


class SimulationKernel:
    """Runs registered slots to completion over a shared clock."""

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        events: EventQueue | None = None,
        stall_limit: int = DEFAULT_STALL_LIMIT,
        cycle_skip: bool = True,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.events = events if events is not None else EventQueue()
        self.stall_limit = stall_limit
        #: True runs the ready/wake scheduler; False steps every slot
        #: every cycle (the bit-identical reference engine).
        self.cycle_skip = cycle_skip
        self.stats = KernelStats()
        self._steps: list[Step] = []
        self._ready: list[bool] = []
        self._gen: list[int] = []
        self._on_wake: list[Callable[[int], None] | None] = []
        self._timers: list[tuple[int, int, int]] = []  # (cycle, slot, gen)
        self._ready_count = 0
        self._finished: Callable[[], bool] = lambda: False
        self._describe: Callable[[], str] | None = None
        self._deadlock_detail: Callable[[int], str] | None = None
        self._last_progress = 0
        # Timeline tracing: grabbed once at construction so a disabled
        # recorder costs exactly one None check on the wake/sleep/jump
        # paths (never inside the per-cycle step loop).
        self.tracer = _active_tracer()
        self._nap_from: list[int] = []
        self._ts_base = self.tracer.cycle_offset if self.tracer else 0
        if self.tracer is not None:
            self.tracer.set_thread_name(SIM_PID, 0, "kernel")

    # -- wiring ------------------------------------------------------------

    def register(
        self,
        step: Step,
        *,
        on_wake: Callable[[int], None] | None = None,
        name: str = "",
    ) -> int:
        """Add a slot stepping ``step``; return its handle.

        Step order is registration order. ``on_wake(now)`` runs when the
        slot re-enters the ready set, before any slot steps at ``now``.
        A slot that never calls :meth:`sleep` stays on the run list
        forever (and vetoes clock jumps), which is always correct, just
        slower.
        """
        slot = len(self._steps)
        self._steps.append(step)
        self._ready.append(True)
        self._gen.append(0)
        self._on_wake.append(on_wake)
        self._ready_count += 1
        self._nap_from.append(-1)
        if self.tracer is not None:
            self.tracer.set_thread_name(
                SIM_PID, slot + 1, f"{slot}:{name or 'slot'}"
            )
        return slot

    def set_finish_condition(self, finished: Callable[[], bool]) -> None:
        """Install the predicate that ends the run (checked per cycle)."""
        self._finished = finished

    def set_describe(self, describe: Callable[[], str]) -> None:
        """Install a context string factory used in error messages."""
        self._describe = describe

    def set_deadlock_detail(self, detail: Callable[[int], str]) -> None:
        """Install extra diagnostic text for deadlock errors."""
        self._deadlock_detail = detail

    def release(self) -> None:
        """Drop every slot, wake hook and predicate the wiring installed.

        Those are bound methods and closures over the simulated machine,
        which holds this kernel in turn; dropping them leaves the pair
        free of reference cycles (see :meth:`repro.machine.system.
        System.release`). The kernel cannot run afterwards.
        """
        self._steps.clear()
        self._on_wake.clear()
        self._finished = None
        self._describe = None
        self._deadlock_detail = None

    # -- sleep/wake API ------------------------------------------------------

    def sleep(self, slot: int, wake_at: int) -> None:
        """Take a ready ``slot`` off the run list from the next cycle.

        Called from inside a step of the current cycle ``now``: the
        caller promises that stepping the slot anywhere in
        ``[now + 1, wake_at)`` would be a no-op provided no wake arrives
        first. A cycle ``wake_at`` arms a timer there; :data:`NEVER`
        leaves only an explicit :meth:`wake`. The reference engine
        (``cycle_skip=False``) steps every slot every cycle, so there
        this is a no-op; a component whose bookkeeping assumes its slot
        sleeps must not plan at all on such a kernel.
        """
        if not self.cycle_skip:
            return
        if wake_at < NEVER:
            heapq.heappush(self._timers, (wake_at, slot, self._gen[slot]))
        self._ready[slot] = False
        self._ready_count -= 1
        if self.tracer is not None:
            self._nap_from[slot] = self.clock.now + 1

    def wake(self, slot: int) -> None:
        """Return a sleeping slot to the ready set.

        Safe to call for a slot that is already ready (no-op). The
        slot's ``on_wake`` runs before it is next stepped, so it can
        settle any batched accounting for the cycles it slept. Waking is
        always allowed — a spurious wake merely costs a no-op step — so
        callers should wake whenever in doubt.
        """
        if not self._ready[slot]:
            self._wake_index(slot, self.clock.now)

    def _wake_index(self, index: int, now: int) -> None:
        # Ready before the hook runs, so a hook that wakes its sibling
        # slots never re-enters this one.
        self._ready[index] = True
        self._gen[index] += 1  # invalidate any armed timer
        self._ready_count += 1
        self.stats.wakes += 1
        on_wake = self._on_wake[index]
        if on_wake is not None:
            on_wake(now)
        if self.tracer is not None:
            started = self._nap_from[index]
            if started >= 0:
                self.tracer.complete(
                    "nap",
                    cat="kernel",
                    ts=self._ts_base + started,
                    dur=max(0, now - started),
                    pid=SIM_PID,
                    tid=index + 1,
                )
                self._nap_from[index] = -1

    # -- progress accounting ------------------------------------------------

    @property
    def last_progress(self) -> int:
        """Cycle of the most recent progress the watchdog knows about."""
        return self._last_progress

    def note_progress(self, cycle: int) -> None:
        """Record progress units made at ``cycle`` retroactively.

        Batched settlements (a commit-replay window settling elided
        commits in one step) report the cycle the last elided commit
        actually happened at, so the deadlock watchdog measures the same
        no-progress span a stepped run would. A window may never extend
        past ``last_progress + stall_limit + 1`` (the cycle the watchdog
        would fire at): its settlement then lands — and notes progress —
        before the firing check, keeping :class:`DeadlockError` cycles
        bit-identical between engines.
        """
        if cycle > self._last_progress:
            self._last_progress = cycle

    # -- main loop ---------------------------------------------------------

    def run(self, max_cycles: int = 500_000_000) -> int:
        """Simulate until the finish condition holds; return that cycle.

        Raises:
            DeadlockError: when no component reports progress for
                ``stall_limit`` cycles while the run is unfinished.
            SimulationError: when ``max_cycles`` elapse first.
        """
        clock = self.clock
        events = self.events
        steps = self._steps
        ready = self._ready
        stats = self.stats
        count = len(steps)
        scheduled = self.cycle_skip
        executed = 0
        stepped = 0
        events_run = 0
        try:
            while clock.now < max_cycles:
                now = clock.now
                timers = self._timers
                while timers and timers[0][0] <= now:
                    _, index, gen = heapq.heappop(timers)
                    if gen == self._gen[index] and not ready[index]:
                        self._wake_index(index, now)
                if self._finished():
                    return now
                events_run += events.run_due(now)
                progress = False
                # zip reads each ready flag when the loop reaches its
                # slot, so a step that wakes a later slot has it step
                # this cycle and one that sleeps a slot takes effect.
                for step, is_ready in zip(steps, ready):
                    if is_ready:
                        stepped += 1
                        if step(now):
                            progress = True
                executed += 1
                if progress:
                    self._last_progress = now
                elif now - self._last_progress > self.stall_limit:
                    self._raise_deadlock(now)
                clock.advance()
                if scheduled and self._ready_count == 0:
                    self._try_jump()
        finally:
            stats.cycles_executed += executed
            stats.component_steps += stepped
            stats.component_steps_avoided += executed * count - stepped
            stats.events_run += events_run
        suffix = f" for {self._describe()}" if self._describe else ""
        raise SimulationError(
            f"simulation exceeded max_cycles={max_cycles}{suffix}"
        )

    # -- scheduling --------------------------------------------------------

    def _try_jump(self) -> None:
        """Ready set empty: jump the clock to the earliest wake-up.

        Never jumps past the cycle at which the watchdog would fire: a
        genuinely dead machine must raise at the same cycle it would
        have when stepped cycle by cycle.
        """
        if self._finished():
            return
        now = self.clock.now
        target = self._last_progress + self.stall_limit + 1
        next_event = self.events.next_cycle
        if next_event is not None and next_event < target:
            target = next_event
        timers = self._timers
        while timers:
            cycle, index, gen = timers[0]
            if gen != self._gen[index] or self._ready[index]:
                heapq.heappop(timers)  # stale: the component woke early
                continue
            if cycle < target:
                target = cycle
            break
        if target <= now:
            return
        self.stats.skips += 1
        self.stats.cycles_skipped += target - now
        if self.tracer is not None:
            self.tracer.complete(
                "clock_jump",
                cat="kernel",
                ts=self._ts_base + now,
                dur=target - now,
                pid=SIM_PID,
                tid=0,
            )
        self.clock.jump(target)

    # -- diagnostics -------------------------------------------------------

    def _raise_deadlock(self, now: int) -> None:
        context = f" ({self._describe()})" if self._describe else ""
        detail = (
            f": {self._deadlock_detail(now)}" if self._deadlock_detail else ""
        )
        raise DeadlockError(
            f"no instruction committed for {self.stall_limit} cycles at "
            f"cycle {now}{context}{detail}"
        )
