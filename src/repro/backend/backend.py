"""Commit-rate back-end (Section V-A).

"Each cycle, the back-end attempts to commit up to a given number of
instructions (commit rate) from its instruction queue." The commit rate is
the IPC measured with performance counters for the current code section,
injected into the traces as IPC records; modelling the back-end this way
isolates the front-end study from back-end design artefacts, exactly as
the paper does.

Fractional IPC values are honoured through a commit-credit accumulator:
an IPC of 0.6 yields three committed instructions every five cycles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.utils import require_positive

#: :func:`replay_walk` mode selectors: one function serves all four
#: deterministic commit-trajectory walks of :class:`CommitEngine`, so
#: one memo bound covers them all.
REPLAY_NEXT = 0  # cycles_to_next_commit: first credit >= 1.0 crossing
REPLAY_HORIZON = 1  # replay_horizon: drain/space trigger, else cap
REPLAY_DRAIN = 2  # drain_horizon: exact queue-empty cycle, else none
REPLAY_STEPS = 3  # replay_steps: settle a span, return the new state


def replay_walk(
    mode: int,
    credit: float,
    ipc: float,
    iq: int,
    count: int,
    space_limit: int,
):
    """Walk a deterministic commit/pacing trajectory in one call.

    The four planning/settlement walks of :class:`CommitEngine` share
    one float credit trajectory — repeated ``credit += ipc`` additions
    with truncating commits — whose rounding must match the stepped
    engine bit for bit, so every mode replays exactly the additions
    :meth:`CommitEngine.step` performs:

    * ``REPLAY_NEXT`` (``cycles_to_next_commit``): the first cycle the
      credit crosses 1.0; returns the relative cycle, or 0 when no
      crossing lands within ``count`` cycles.
    * ``REPLAY_HORIZON`` (``replay_horizon``): the replay-window
      bound — one cycle past the commit that drains the queue or frees
      ``iq <= space_limit`` room, else ``count``. Pass
      ``space_limit=-1`` for no space gate.
    * ``REPLAY_DRAIN`` (``drain_horizon``): the exact cycle the queue
      empties, or 0 when it does not drain within ``count`` cycles.
    * ``REPLAY_STEPS`` (``replay_steps``): settle ``count``
      consecutive commit/pacing cycles; returns ``(committed,
      base_cycles, last_commit, iq, credit, stalled)`` where
      ``last_commit`` is the 1-based offset of the last committing
      cycle (0 for pure pacing) and ``stalled`` flags a span that
      crossed a stall boundary — the walk stops on the stall cycle
      with its credit addition applied and no base cycle charged,
      exactly the prefix state a stepped run raises from.

    Every mode is pure — mode 3's caller applies the returned state —
    which is what lets :data:`memo_replay_walk` cache it.
    """
    if mode == REPLAY_NEXT:
        for ahead in range(1, count + 1):
            credit += ipc
            if credit >= 1.0:
                return ahead
        return 0
    if mode == REPLAY_HORIZON:
        for ahead in range(1, count + 1):
            credit += ipc
            commit = min(int(credit), iq)
            if commit:
                iq -= commit
                credit = min(credit - commit, ipc)
                if iq <= space_limit or iq == 0:
                    return ahead + 1
        return count
    if mode == REPLAY_DRAIN:
        for ahead in range(1, count + 1):
            credit += ipc
            commit = min(int(credit), iq)
            if commit:
                iq -= commit
                credit = min(credit - commit, ipc)
                if iq == 0:
                    return ahead
        return 0
    committed = 0
    base_cycles = 0
    last_commit = 0
    for offset in range(1, count + 1):
        credit += ipc
        commit = min(int(credit), iq)
        if commit > 0:
            iq -= commit
            credit -= commit
            base_cycles += 1
            credit = min(credit, ipc)
            committed += commit
            last_commit = offset
        elif credit >= 1.0:
            return (committed, base_cycles, last_commit, iq, credit, True)
        else:
            base_cycles += 1
    return (committed, base_cycles, last_commit, iq, credit, False)


#: Bound of the commit-walk memo (distinct argument tuples kept). IPCs
#: come from a few constants per benchmark, so a whole figure sweep
#: walks only a few thousand distinct trajectories.
REPLAY_MEMO_SIZE = 1 << 14

#: :func:`replay_walk` memoized: the walk is a pure function of
#: ``(mode, credit, ipc, iq, count, space_limit)`` and returns an int
#: (modes 0-2) or a tuple (mode 3), so a cached result cannot be
#: mutated by a caller.
memo_replay_walk = functools.lru_cache(maxsize=REPLAY_MEMO_SIZE)(replay_walk)

#: Stall categories reported in the CPI stack (Fig. 8).
STALL_CAUSES = (
    "branch",
    "ibus_latency",
    "ibus_congestion",
    "icache_latency",
    "memory",
    "sync",
    "other",
)


@dataclass
class CommitStats:
    """Back-end accounting for one core."""

    committed: int = 0
    base_cycles: int = 0
    stall_cycles: dict[str, int] = field(
        default_factory=lambda: {cause: 0 for cause in STALL_CAUSES}
    )

    @property
    def total_stall_cycles(self) -> int:
        return sum(self.stall_cycles.values())

    @property
    def active_cycles(self) -> int:
        return self.base_cycles + self.total_stall_cycles

    def cpi(self) -> float:
        if self.committed == 0:
            return 0.0
        return self.active_cycles / self.committed


class CommitEngine:
    """Instruction queue + commit logic for one core."""

    def __init__(self, iq_capacity: int = 64, initial_ipc: float = 1.0) -> None:
        require_positive(iq_capacity, "iq_capacity")
        require_positive(initial_ipc, "initial_ipc")
        self.iq_capacity = iq_capacity
        #: Instructions in the queue (read every cycle by the schedule
        #: state and the ICOUNT arbiter: a plain attribute, no property).
        self.iq_count = 0
        self._ipc = initial_ipc
        self._credit = 0.0
        self.stats = CommitStats()

    # -- instruction queue --------------------------------------------------

    def iq_space(self) -> int:
        return self.iq_capacity - self.iq_count

    def iq_push(self, instructions: int) -> None:
        if instructions < 0:
            raise SimulationError(f"cannot push {instructions} instructions")
        if self.iq_count + instructions > self.iq_capacity:
            raise SimulationError(
                f"instruction queue overflow: {self.iq_count}+{instructions} "
                f"> {self.iq_capacity}"
            )
        self.iq_count += instructions

    # -- commit rate --------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self._ipc

    def set_ipc(self, ipc: float) -> None:
        """Retarget the commit rate (an IPC record in the trace)."""
        require_positive(ipc, "ipc")
        self._ipc = ipc

    # -- per-cycle step -------------------------------------------------------

    def step(self, now: int, stall_cause) -> int:
        """Attempt one commit cycle; return instructions committed.

        Args:
            stall_cause: the front-end's attribution, charged when the
                queue cannot cover an earned commit credit. Either the
                cause string itself, or a ``callable(now) -> str`` that
                is only invoked on a stall — committing cycles (the
                common case) then skip the attribution walk entirely.
        """
        self._credit += self._ipc
        commit = min(int(self._credit), self.iq_count)
        if commit > 0:
            self.iq_count -= commit
            self._credit -= commit
            self.stats.committed += commit
            self.stats.base_cycles += 1
            # Leftover credit beyond one cycle's worth does not bank: the
            # back-end cannot commit more than its width later.
            self._credit = min(self._credit, self._ipc)
            return commit
        if self._credit >= 1.0:
            # Earned a commit slot but had nothing to commit: a stall.
            if callable(stall_cause):
                stall_cause = stall_cause(now)
            if stall_cause == "finished":
                self.stats.base_cycles += 1
            else:
                cause = stall_cause if stall_cause in self.stats.stall_cycles else "other"
                self.stats.stall_cycles[cause] += 1
            self._credit = min(self._credit, max(1.0, self._ipc))
            return 0
        # Sub-unit IPC pacing: not a stall, the back-end is simply narrow.
        self.stats.base_cycles += 1
        return 0

    def cycles_to_next_commit(self, cap: int = 4096) -> int | None:
        """Cycles until :meth:`step` would next commit, absent pushes.

        The scheduler's commit-pacing horizon: with a non-empty queue
        and a sub-unit IPC, the back-end only acts on the cycle its
        accumulated credit crosses 1.0; every cycle before that is pure
        pacing (see :meth:`pacing_steps`). The crossing is found by
        replaying the same float additions ``step`` performs, because
        ``credit + k * ipc`` and ``k`` repeated additions round
        differently.

        Returns ``None`` when the queue is empty, or when no commit
        occurs within ``cap`` cycles (the caller then simply keeps the
        back-end on the run list).
        """
        if self.iq_count == 0:
            return None
        ahead = memo_replay_walk(
            REPLAY_NEXT, self._credit, self._ipc, self.iq_count, cap, -1
        )
        return ahead if ahead else None

    def replay_horizon(self, space_needed: int = 0, cap: int = 4096) -> int | None:
        """Relative wake cycle bounding a commit-replay window.

        The scheduler's commit-replay lever: with a non-empty queue and
        a quiescent front-end (no pushes, no IPC retargets), every
        coming back-end cycle is either a commit or sub-unit pacing —
        never a stall — until the queue drains, so the whole span can be
        settled in one batch (:meth:`replay_steps`). This walks the same
        float credit trajectory :meth:`step` would produce and returns
        ``r`` such that every cycle in ``[now + 1, now + r)`` is
        replayable and the caller must wake at ``now + r`` at the
        latest:

        * the cycle after the queue drains (the next cycle would charge
          a stall, which needs live attribution);
        * the cycle a front-end waiting for ``space_needed`` free queue
          slots would first act — one cycle after the commit that frees
          the room, exactly when a live back-end would have woken it;
        * ``cap`` cycles out, when neither bound is reached first (the
          caller then simply re-plans on wake).

        Returns ``None`` when the queue is empty (no commit stream to
        replay; the idle-window machinery owns that case).
        """
        iq = self.iq_count
        if iq == 0:
            return None
        space_limit = self.iq_capacity - space_needed if space_needed else -1
        return memo_replay_walk(
            REPLAY_HORIZON, self._credit, self._ipc, iq, cap, space_limit
        )

    def drain_horizon(self, cap: int = 4096) -> int | None:
        """Relative cycle of the commit that empties the queue.

        The scheduler's redirect-replay lever: a front-end stalled on a
        mispredict drain cannot push, so the queue's remaining commit
        trajectory is fully deterministic and the exact drain cycle can
        be planned ahead. This walks the same float credit trajectory
        :meth:`step` would produce and returns ``d`` such that the
        queue's last instructions commit at ``now + d`` (every cycle in
        ``[now + 1, now + d]`` is a commit or sub-unit pacing step,
        replayable by :meth:`replay_steps`).

        Returns ``None`` when the queue is already empty, or when it
        does not drain within ``cap`` cycles — unlike
        :meth:`replay_horizon`'s capped return, the caller needs an
        unambiguous drain point to anchor the redirect penalty to.
        """
        iq = self.iq_count
        if iq == 0:
            return None
        drain = memo_replay_walk(
            REPLAY_DRAIN, self._credit, self._ipc, iq, cap, -1
        )
        return drain if drain else None

    def replay_steps(self, cycles: int) -> tuple[int, int | None]:
        """Replay ``cycles`` consecutive commit/pacing steps at once.

        Equivalent to calling :meth:`step` ``cycles`` times while the
        queue stays non-empty: identical committed counts, base cycles
        and final commit-credit value (including float behaviour), so a
        batched settlement is bit-identical to a stepped run. The caller
        (the scheduler's commit-replay window) guarantees the window
        ends no later than one cycle past the drain; a stall cycle in
        the span means the window was mis-sized and the run would
        diverge from a stepped one.

        Returns ``(committed, last_commit_offset)`` where the offset is
        the 1-based position of the last committing cycle within the
        replayed span (``None`` when the span was pure pacing) — the
        watchdog needs the exact cycle progress was last made.
        """
        committed_total, base_cycles, last_commit, iq, credit, stalled = (
            memo_replay_walk(
                REPLAY_STEPS, self._credit, self._ipc, self.iq_count,
                cycles, -1,
            )
        )
        # The walk stops on a stall with the prefix state applied — the
        # stall cycle's credit earned, no base cycle charged — exactly
        # the state a stepped run raises from.
        self.iq_count = iq
        self._credit = credit
        self.stats.committed += committed_total
        self.stats.base_cycles += base_cycles
        if stalled:
            raise SimulationError(
                "commit-replay window crossed a stall boundary"
            )
        return committed_total, last_commit if last_commit else None

    def pacing_steps(self, cycles: int) -> None:
        """Replay ``cycles`` sub-unit pacing steps at once.

        Equivalent to calling :meth:`step` ``cycles`` times while the
        queue is non-empty and the commit credit stays below 1.0: each
        such cycle accrues one base cycle and one IPC's worth of
        credit, nothing else. The caller (the scheduler's commit-pacing
        window) guarantees the window ends strictly before the next
        commit; crossing the boundary here means the window was
        mis-sized and the run would diverge from a stepped one.
        """
        if self.iq_count == 0:
            raise SimulationError("pacing_steps requires a non-empty queue")
        for _ in range(cycles):
            self._credit += self._ipc
            if self._credit >= 1.0:
                raise SimulationError(
                    "pacing window crossed a commit boundary"
                )
            self.stats.base_cycles += 1

    def idle_steps(self, cycles: int, stall_cause: str) -> None:
        """Account ``cycles`` consecutive :meth:`step` calls at once.

        The kernel's cycle-skipping fast path uses this instead of
        stepping an empty back-end cycle by cycle. The contract is exact
        equivalence with calling ``step(_, stall_cause)`` ``cycles``
        times while the instruction queue is empty: the same stall/base
        cycle counts and the same final commit-credit value (including
        float behaviour), so a skipped run is bit-identical to a stepped
        one.
        """
        if cycles <= 0:
            return
        if self.iq_count:
            raise SimulationError(
                "idle_steps requires an empty instruction queue "
                f"(have {self.iq_count})"
            )
        remaining = cycles
        # Warm-up: sub-unit pacing cycles until one commit credit is
        # earned. Replays step()'s repeated addition so the float credit
        # trajectory is identical.
        while remaining and self._credit + self._ipc < 1.0:
            self._credit += self._ipc
            self.stats.base_cycles += 1
            remaining -= 1
        if not remaining:
            return
        # Every remaining cycle earns a credit it cannot spend: step()
        # charges one stall cycle and clamps the credit. After the first
        # such cycle the credit is pinned at the clamp value exactly.
        cap = max(1.0, self._ipc)
        self._credit = min(self._credit + self._ipc, cap)
        if remaining > 1:
            self._credit = cap
        if stall_cause == "finished":
            self.stats.base_cycles += remaining
        else:
            cause = (
                stall_cause
                if stall_cause in self.stats.stall_cycles
                else "other"
            )
            self.stats.stall_cycles[cause] += remaining
