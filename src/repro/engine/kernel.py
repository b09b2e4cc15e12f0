"""The simulation main loop: an event-driven ready/wake scheduler.

:class:`SimulationKernel` owns the :class:`~repro.engine.clock.Clock`,
the :class:`~repro.engine.events.EventQueue` and an ordered list of
components. Components are held in a *ready set*; per simulated cycle
the kernel:

1. wakes every component whose armed cycle timer is due;
2. checks the registered finish condition;
3. delivers every event due at the current cycle (event callbacks may
   wake sleeping components);
4. steps each **ready** component in registration order, summing the
   progress units (committed instructions) they report;
5. asks each ready component for a *sleep plan* and deregisters the
   ones that certify quiescence;
6. arms the deadlock watchdog when no progress was made.

**Sleeping and waking.** A component that cannot act — a front-end
waiting on a line fill, a back-end with an empty instruction queue, an
idle interconnect, a core blocked on synchronisation — returns a plan
from :meth:`ScheduledComponent.sleep_plan`: a concrete wake-up cycle
(redirect penalty, iTLB walk, commit pacing) arms a cycle timer;
:data:`NEVER` means only an explicit :meth:`SimulationKernel.wake` (a
fill completion, a barrier release) can rouse it. While asleep, a
component is simply not on the run list; ``on_sleep``/``on_wake``
bracket the nap so the component can batch-account the cycles it was
never stepped for.

**Clock jumping.** When the ready set is empty, nothing can change
until the next wake-up: the clock jumps straight to the earliest of the
next scheduled event, the earliest armed timer and the deadlock
watchdog's firing cycle. This is the degenerate case of the scheduler —
the old "every component idle" global gate — and no longer requires the
whole machine to quiesce at once for per-component work to be elided.

The contract is exact equivalence: a scheduled run must produce
bit-identical results to the same run stepped cycle by cycle with
``cycle_skip=False``, including :class:`DeadlockError` firing at the
same cycle. A component not in the ready set must therefore be a
provable no-op for every elided cycle (modulo the batched accounting it
performs in ``on_wake``).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.engine.clock import Clock
from repro.engine.events import EventQueue
from repro.errors import DeadlockError, SimulationError
from repro.obs.recorder import tracer as _active_tracer
from repro.obs.timeline import SIM_PID

#: Sleep-plan sentinel: "nothing but an explicit wake can rouse me".
NEVER = 1 << 62

#: Cycles without any progress before declaring a deadlock (the same
#: window the seed engine used).
DEFAULT_STALL_LIMIT = 200_000

#: Shortest timer nap worth deregistering for. Below this, the
#: bookkeeping (heap entries, wake transitions, re-planning) costs more
#: than the steps it elides, so the component simply stays on the run
#: list — always equivalent, since a ready component that cannot act
#: steps as a no-op exactly like the reference engine. Event-only
#: (:data:`NEVER`) sleeps are exempt: their naps are unbounded.
MIN_TIMER_NAP = 4


@runtime_checkable
class Steppable(Protocol):
    """Anything the kernel can step once per simulated cycle."""

    def step(self, now: int) -> int | None:
        """Advance one cycle; return progress units made (or None)."""


class ScheduledComponent(Steppable, Protocol):
    """A steppable that participates in the ready/wake scheduler.

    The contract, checked end to end by the equivalence suite:

    * ``sleep_plan(now)`` is asked after the component stepped at
      ``now``. Returning ``None`` keeps it on the run list. Returning a
      cycle ``w > now + 1`` promises that stepping it anywhere in
      ``[now + 1, w)`` would be a no-op provided no wake arrives first;
      the kernel arms a timer at ``w``. Returning :data:`NEVER` promises
      the same for every future cycle until an explicit wake.
    * ``on_sleep(now)`` is called when the kernel deregisters the
      component (its nap covers cycles from ``now + 1``).
    * ``on_wake(now)`` is called when the component re-enters the ready
      set — by timer or by :meth:`SimulationKernel.wake` — before any
      component steps at ``now``. This is where elided cycles are
      batch-accounted so results match a stepped run bit for bit.

    A component may also be registered with only :meth:`step`; it then
    stays on the run list forever (and vetoes clock jumps), which is
    always correct, just slower.
    """

    def sleep_plan(self, now: int) -> int | None:
        """Earliest cycle at which :meth:`step` could act again."""

    def on_sleep(self, now: int) -> None:
        """The kernel deregistered this component at the end of ``now``."""

    def on_wake(self, now: int) -> None:
        """The component re-enters the ready set at ``now``."""


@dataclass
class KernelStats:
    """Main-loop accounting, exposed for benchmarks and tests."""

    cycles_executed: int = 0
    cycles_skipped: int = 0
    skips: int = 0
    events_run: int = 0
    #: Component step() calls actually made.
    component_steps: int = 0
    #: Step() calls elided on executed cycles because the component was
    #: asleep (cycles jumped over are counted in ``cycles_skipped``).
    component_steps_avoided: int = 0
    #: Transitions from asleep back into the ready set.
    wakes: int = 0
    #: Interconnect busy-only steps replaced by one batched settlement
    #: (a sleeping interconnect component charging a whole transfer
    #: window at once); aggregated by the simulator after the run.
    interconnect_busy_batched: int = 0
    #: Back-end commit/pacing steps replaced by one batched commit
    #: replay (a sleeping back-end settling a whole deterministic
    #: commit window at once); aggregated by the simulator after the run.
    commit_cycles_batched: int = 0
    #: Redirect-penalty stall cycles replaced by one batched redirect
    #: replay (a core sleeping across a mispredict drain + penalty and
    #: settling the whole span at the fetch-resume cycle); aggregated
    #: by the simulator after the run.
    redirect_cycles_batched: int = 0

    @property
    def total_cycles(self) -> int:
        return self.cycles_executed + self.cycles_skipped

    @property
    def skipped_fraction(self) -> float:
        """Share of simulated cycles covered by clock jumps."""
        total = self.total_cycles
        return self.cycles_skipped / total if total else 0.0


class SimulationKernel:
    """Runs registered components to completion over a shared clock."""

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
        #: True runs the ready/wake scheduler; False steps every
        #: component every cycle (the bit-identical reference engine).
        self.cycle_skip = cycle_skip
        self.stats = KernelStats()
        self._components: list[Steppable] = []
        self._ready: list[bool] = []
        self._gen: list[int] = []
        self._plans: list[Callable[[int], int | None] | None] = []
        self._on_sleep: list[Callable[[int], None] | None] = []
        self._on_wake: list[Callable[[int], None] | None] = []
        self._index_of: dict[int, int] = {}
        self._timers: list[tuple[int, int, int]] = []  # (cycle, index, gen)
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

    def register(self, component: Steppable) -> None:
        """Add a component; step order is registration order."""
        index = len(self._components)
        self._components.append(component)
        self._ready.append(True)
        self._gen.append(0)
        self._plans.append(getattr(component, "sleep_plan", None))
        self._on_sleep.append(getattr(component, "on_sleep", None))
        self._on_wake.append(getattr(component, "on_wake", None))
        self._index_of[id(component)] = index
        self._ready_count += 1
        self._nap_from.append(-1)
        if self.tracer is not None:
            self.tracer.set_thread_name(
                SIM_PID, index + 1, f"{index}:{type(component).__name__}"
            )

    def set_finish_condition(self, finished: Callable[[], bool]) -> None:
        """Install the predicate that ends the run (checked per cycle)."""
        self._finished = finished

    def set_describe(self, describe: Callable[[], str]) -> None:
        """Install a context string factory used in error messages."""
        self._describe = describe

    def set_deadlock_detail(self, detail: Callable[[int], str]) -> None:
        """Install extra diagnostic text for deadlock errors."""
        self._deadlock_detail = detail

    # -- wake API ----------------------------------------------------------

    def wake(self, component: Steppable) -> None:
        """Return a sleeping component to the ready set.

        Safe to call for a component that is already ready (no-op). The
        component's ``on_wake`` runs before it is next stepped, so it
        can settle any batched accounting for the cycles it slept.
        Waking is always allowed — a spurious wake merely costs a no-op
        step — so callers should wake whenever in doubt.
        """
        try:
            index = self._index_of[id(component)]
        except KeyError:
            raise SimulationError(
                f"wake() for unregistered component {component!r}"
            ) from None
        if self._ready[index]:
            return
        self._wake_index(index, self.clock.now)

    def _wake_index(self, index: int, now: int) -> None:
        on_wake = self._on_wake[index]
        if on_wake is not None:
            on_wake(now)
        self._ready[index] = True
        self._gen[index] += 1  # invalidate any armed timer
        self._ready_count += 1
        self.stats.wakes += 1
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
        components = self._components
        ready = self._ready
        stats = self.stats
        count = len(components)
        indices = range(count)
        scheduled = self.cycle_skip
        executed = 0
        steps = 0
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
                progress = 0
                for index in indices:
                    if ready[index]:
                        progress += components[index].step(now) or 0
                        steps += 1
                executed += 1
                if progress:
                    self._last_progress = now
                elif now - self._last_progress > self.stall_limit:
                    self._raise_deadlock(now)
                if scheduled:
                    self._sleep_pass(now)
                clock.advance()
                if scheduled and self._ready_count == 0:
                    self._try_jump()
        finally:
            stats.cycles_executed += executed
            stats.component_steps += steps
            stats.component_steps_avoided += executed * count - steps
            stats.events_run += events_run
        suffix = f" for {self._describe()}" if self._describe else ""
        raise SimulationError(
            f"simulation exceeded max_cycles={max_cycles}{suffix}"
        )

    # -- scheduling --------------------------------------------------------

    def _sleep_pass(self, now: int) -> None:
        """Deregister every ready component that certifies quiescence."""
        ready = self._ready
        nap_floor = now + MIN_TIMER_NAP
        for index, plan in enumerate(self._plans):
            if plan is None or not ready[index]:
                continue
            wake_at = plan(now)
            if wake_at is None:
                continue  # could act next cycle: stay on the run list
            if wake_at < NEVER:
                if wake_at < nap_floor:
                    continue  # nap too short to be worth the bookkeeping
                heapq.heappush(
                    self._timers, (wake_at, index, self._gen[index])
                )
            on_sleep = self._on_sleep[index]
            if on_sleep is not None:
                on_sleep(now)
            ready[index] = False
            self._ready_count -= 1
            if self.tracer is not None:
                self._nap_from[index] = now + 1  # nap covers from now + 1

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
