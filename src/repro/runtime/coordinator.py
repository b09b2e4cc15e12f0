"""Runtime replay of OpenMP synchronisation (Section V-A).

The simulation framework "mimics the run-time system by managing the state
of every thread according to the synchronization events in order to
reproduce the same static scheduling of the application". This module is
that runtime: it interprets the five event kinds recorded in the traces —
parallel start/end, wait and signal on critical sections and semaphores,
and barrier — blocking and waking the simulated threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.runtime.threads import ThreadContext, ThreadState
from repro.trace.records import SyncKind, SyncRecord


@dataclass
class _Lock:
    holder: int | None = None
    waiters: deque[int] = field(default_factory=deque)


@dataclass
class _JoinBarrier:
    """One barrier/join instance with membership fixed at creation.

    ``expected`` snapshots the number of unfinished threads when the
    first participant arrives; it must not be re-derived from thread
    states at later arrivals, or a thread finishing between two
    arrivals would silently shrink the threshold a later arrival is
    compared against, making the release decision depend on the
    finish/arrival interleaving. Departures are handled explicitly
    instead: :meth:`RuntimeCoordinator.thread_finished` decrements the
    expectation for counted participants that can no longer arrive.
    """

    expected: int = 0
    arrived: set[int] = field(default_factory=set)
    released: bool = False


class RuntimeCoordinator:
    """Interprets sync records and manages thread states.

    Fork-join semantics:

    * ``PARALLEL_START(p)`` — the master announces phase ``p``; workers
      reaching their own start of ``p`` before the announcement block.
      The master never waits at a start (fork is asynchronous).
    * ``PARALLEL_END(p)`` — a join barrier over all threads; everyone
      waits until the last participant arrives.
    * ``BARRIER(b)`` — a standalone barrier over all unfinished threads.
    * ``WAIT(l)`` / ``SIGNAL(l)`` — critical-section lock acquire/release
      with FIFO hand-off.
    """

    def __init__(self, contexts: list[ThreadContext]) -> None:
        if not contexts:
            raise SimulationError("runtime requires at least one thread")
        self.contexts = contexts
        self._started_phases: set[int] = set()
        self._start_waiters: dict[int, list[int]] = {}
        self._joins: dict[int, _JoinBarrier] = {}
        self._barriers: dict[int, _JoinBarrier] = {}
        self._locks: dict[int, _Lock] = {}
        self.lock_hand_offs = 0
        #: Threads whose trace ended (one :meth:`thread_finished` call
        #: each): the machine's finish check compares it with the core
        #: count instead of scanning every thread state each cycle.
        self.finished_count = 0
        #: Ready/wake hook: wake_listener(thread_id, cycle) returns a
        #: sleeping core's components to the kernel's run list whenever
        #: a barrier release, phase start or lock hand-off unblocks its
        #: thread. None (the default) keeps the coordinator pollable.
        self.wake_listener = None

    def _wake(self, thread_id: int, now: int) -> None:
        self.contexts[thread_id].wake(now)
        if self.wake_listener is not None:
            self.wake_listener(thread_id, now)

    @property
    def thread_count(self) -> int:
        return len(self.contexts)

    def deliver(self, thread_id: int, record: SyncRecord, now: int) -> bool:
        """Process one sync record for a thread.

        Returns:
            True when the thread may continue immediately; False when it
            has been blocked (it will be woken by a later event). The
            record is consumed either way.
        """
        kind = record.kind
        if kind is SyncKind.PARALLEL_START:
            return self._parallel_start(thread_id, record.object_id, now)
        if kind is SyncKind.PARALLEL_END:
            return self._join(self._joins, thread_id, record.object_id, now)
        if kind is SyncKind.BARRIER:
            return self._join(self._barriers, thread_id, record.object_id, now)
        if kind is SyncKind.WAIT:
            return self._wait(thread_id, record.object_id, now)
        if kind is SyncKind.SIGNAL:
            return self._signal(thread_id, record.object_id, now)
        raise SimulationError(f"unhandled sync kind {kind}")

    # -- parallel regions -------------------------------------------------

    def _parallel_start(self, thread_id: int, phase: int, now: int) -> bool:
        if thread_id == 0:
            if phase in self._started_phases:
                raise SimulationError(f"master re-starts phase {phase}")
            self._started_phases.add(phase)
            for waiter in self._start_waiters.pop(phase, []):
                self._wake(waiter, now)
            return True
        if phase in self._started_phases:
            return True
        self._start_waiters.setdefault(phase, []).append(thread_id)
        self.contexts[thread_id].block(now)
        return False

    def _join(
        self,
        table: dict[int, _JoinBarrier],
        thread_id: int,
        object_id: int,
        now: int,
    ) -> bool:
        barrier = table.get(object_id)
        if barrier is None:
            participants = sum(
                1 for c in self.contexts if c.state is not ThreadState.FINISHED
            )
            barrier = _JoinBarrier(expected=participants)
            table[object_id] = barrier
        if barrier.released:
            raise SimulationError(
                f"thread {thread_id} arrives at already-released barrier "
                f"{object_id}"
            )
        barrier.arrived.add(thread_id)
        if len(barrier.arrived) >= barrier.expected:
            barrier.released = True
            for arrived_id in barrier.arrived:
                if arrived_id != thread_id:
                    self._wake(arrived_id, now)
            return True
        self.contexts[thread_id].block(now)
        return False

    def thread_finished(self, thread_id: int, now: int) -> None:
        """Note a thread's trace ended: it will never arrive anywhere.

        Open barriers drop the finished thread from their creation-time
        expectation (it was counted as a participant but can no longer
        arrive), so the remaining participants' final arrival still
        releases them. The release decision itself stays arrival-driven:
        a barrier whose *last* awaited participant finishes instead of
        arriving is a protocol violation (the traces promised an arrival
        that never comes) and is surfaced by the deadlock watchdog
        rather than papered over here.
        """
        self.finished_count += 1
        for table in (self._joins, self._barriers):
            for barrier in table.values():
                if not barrier.released and thread_id not in barrier.arrived:
                    barrier.expected -= 1

    # -- critical sections -------------------------------------------------

    def _wait(self, thread_id: int, lock_id: int, now: int) -> bool:
        lock = self._locks.setdefault(lock_id, _Lock())
        if lock.holder is None:
            lock.holder = thread_id
            return True
        if lock.holder == thread_id:
            raise SimulationError(
                f"thread {thread_id} re-acquires lock {lock_id}"
            )
        lock.waiters.append(thread_id)
        self.contexts[thread_id].block(now)
        return False

    def _signal(self, thread_id: int, lock_id: int, now: int) -> bool:
        lock = self._locks.get(lock_id)
        if lock is None or lock.holder != thread_id:
            raise SimulationError(
                f"thread {thread_id} signals lock {lock_id} it does not hold"
            )
        if lock.waiters:
            next_holder = lock.waiters.popleft()
            lock.holder = next_holder
            self._wake(next_holder, now)
            self.lock_hand_offs += 1
        else:
            lock.holder = None
        return True

    # -- diagnostics -------------------------------------------------------

    def all_blocked(self) -> bool:
        """True when no unfinished thread can run (deadlock indicator)."""
        unfinished = [
            c for c in self.contexts if c.state is not ThreadState.FINISHED
        ]
        return bool(unfinished) and all(
            c.state is ThreadState.BLOCKED for c in unfinished
        )

    def describe_blockage(self) -> str:
        """Human-readable dump of who waits on what, for deadlock errors."""
        parts = []
        for phase, waiters in self._start_waiters.items():
            parts.append(f"phase {phase} start: threads {sorted(waiters)}")
        for object_id, barrier in self._joins.items():
            if not barrier.released:
                parts.append(
                    f"join {object_id}: arrived {sorted(barrier.arrived)}"
                )
        for lock_id, lock in self._locks.items():
            if lock.waiters:
                parts.append(
                    f"lock {lock_id}: held by {lock.holder}, "
                    f"waiting {list(lock.waiters)}"
                )
        return "; ".join(parts) if parts else "no registered waiters"
