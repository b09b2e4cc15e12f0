"""Unit tests for the commit-rate back-end."""

import random

import pytest

from repro.backend import CommitEngine
from repro.errors import SimulationError


class TestInstructionQueue:
    def test_push_and_space(self):
        backend = CommitEngine(iq_capacity=16)
        assert backend.iq_space() == 16
        backend.iq_push(10)
        assert backend.iq_count == 10
        assert backend.iq_space() == 6

    def test_overflow_rejected(self):
        backend = CommitEngine(iq_capacity=4)
        with pytest.raises(SimulationError):
            backend.iq_push(5)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            CommitEngine().iq_push(-1)


class TestCommitRates:
    def test_integer_ipc(self):
        backend = CommitEngine(iq_capacity=64, initial_ipc=2.0)
        backend.iq_push(10)
        total = sum(backend.step(now, "other") for now in range(5))
        assert total == 10
        assert backend.stats.committed == 10

    def test_fractional_ipc_paces_commits(self):
        # IPC 0.5 commits one instruction every two cycles.
        backend = CommitEngine(iq_capacity=64, initial_ipc=0.5)
        backend.iq_push(5)
        commits = [backend.step(now, "other") for now in range(10)]
        assert sum(commits) == 5
        assert commits == [0, 1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_ipc_change_applies(self):
        backend = CommitEngine(initial_ipc=1.0)
        backend.iq_push(8)
        backend.step(0, "other")
        backend.set_ipc(4.0)
        assert backend.step(1, "other") == 4

    def test_invalid_ipc_rejected(self):
        with pytest.raises(Exception):
            CommitEngine().set_ipc(0.0)

    def test_commit_bounded_by_queue(self):
        backend = CommitEngine(initial_ipc=8.0)
        backend.iq_push(3)
        assert backend.step(0, "other") == 3


class TestStallAccounting:
    def test_stall_charged_to_cause(self):
        backend = CommitEngine(initial_ipc=1.0)
        for now in range(5):
            backend.step(now, "ibus_congestion")
        assert backend.stats.stall_cycles["ibus_congestion"] == 5
        assert backend.stats.committed == 0

    def test_unknown_cause_folds_into_other(self):
        backend = CommitEngine(initial_ipc=1.0)
        backend.step(0, "bizarre")
        assert backend.stats.stall_cycles["other"] == 1

    def test_finished_counts_as_base(self):
        backend = CommitEngine(initial_ipc=1.0)
        backend.step(0, "finished")
        assert backend.stats.base_cycles == 1
        assert backend.stats.total_stall_cycles == 0

    def test_base_cycles_on_commit(self):
        backend = CommitEngine(initial_ipc=1.0)
        backend.iq_push(2)
        backend.step(0, "other")
        backend.step(1, "other")
        assert backend.stats.base_cycles == 2
        assert backend.stats.cpi() == pytest.approx(1.0)

    def test_cpi_includes_stalls(self):
        backend = CommitEngine(initial_ipc=1.0)
        backend.iq_push(1)
        backend.step(0, "other")  # commit
        backend.step(1, "memory")  # stall
        backend.step(2, "memory")  # stall
        assert backend.stats.cpi() == pytest.approx(3.0)

    def test_subunit_pacing_is_base_not_stall(self):
        backend = CommitEngine(initial_ipc=0.25)
        backend.iq_push(4)
        for now in range(16):
            backend.step(now, "other")
        assert backend.stats.committed == 4
        # All cycles are pacing or commit cycles, not stalls.
        assert backend.stats.total_stall_cycles == 0


class TestReplayWalkMemo:
    def test_memo_is_bounded_and_changes_no_result(self):
        """One design point run with the commit-walk memo cleared, then
        again with it warm from the first run, gives identical results;
        the memo's size is bounded."""
        from repro.acmp import worker_shared_config
        from repro.backend import backend
        from repro.machine.serialization import result_to_dict
        from repro.machine.simulator import simulate
        from repro.trace.synthesis import synthesize_benchmark

        config = worker_shared_config()
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.1
        )
        backend.memo_replay_walk.cache_clear()
        cold = result_to_dict(simulate(config, traces))
        warmed = backend.memo_replay_walk.cache_info()
        assert warmed.misses > 0
        warm = result_to_dict(simulate(config, traces))
        info = backend.memo_replay_walk.cache_info()
        assert info.hits > warmed.hits  # the second run was served
        assert warm == cold
        assert info.maxsize == backend.REPLAY_MEMO_SIZE
        assert 0 < info.maxsize < float("inf")
        assert info.currsize <= info.maxsize


def _random_engine(rng):
    engine = CommitEngine(
        iq_capacity=rng.choice([8, 16, 64]),
        initial_ipc=rng.choice([0.3, 0.6, 0.75, 1.0, 1.6, 2.3]),
    )
    engine.iq_push(rng.randrange(0, engine.iq_capacity + 1))
    engine._credit = rng.uniform(0.0, 0.99)
    return engine


def _stepped_horizons(engine, cap, space_limit):
    """Step ``engine`` with no pushes for up to ``cap`` cycles.

    Returns what the three planning walks must predict: the first
    committing cycle, the replay-window bound (one cycle past the commit
    that drains the queue or frees room down to ``space_limit``, else
    ``cap``) and the draining cycle.
    """
    first = horizon = drain = None
    for ahead in range(1, cap + 1):
        if not engine.step(ahead, "other"):
            continue
        if first is None:
            first = ahead
        remaining = engine.iq_count
        if horizon is None and (remaining <= space_limit or remaining == 0):
            horizon = ahead + 1
        if remaining == 0:
            drain = ahead
            break
    return first, cap if horizon is None else horizon, drain


class TestReplayWalkSpec:
    """The CommitEngine's replay_walk-backed planning and settlement
    walks against repeated ``step()`` calls on an identical engine."""

    def test_planning_modes_match_stepped_engine(self):
        rng = random.Random(51)
        for trial in range(300):
            seed = rng.randrange(1 << 30)
            engine = _random_engine(random.Random(seed))
            cap = rng.choice([5, 64, 4096])
            space = rng.randrange(0, engine.iq_capacity + 1)
            space_limit = engine.iq_capacity - space if space else -1
            occupied = engine.iq_count > 0

            first, horizon, drain = _stepped_horizons(
                _random_engine(random.Random(seed)), cap, space_limit
            )
            assert engine.cycles_to_next_commit(cap) == first, trial
            assert engine.replay_horizon(space, cap) == (
                horizon if occupied else None
            ), trial
            assert engine.drain_horizon(cap) == drain, trial

    def test_steps_mode_matches_stepped_settlement(self):
        rng = random.Random(52)
        stalls = 0
        for trial in range(400):
            seed = rng.randrange(1 << 30)
            cycles = rng.randrange(1, 60)
            replayed = _random_engine(random.Random(seed))
            stepped = _random_engine(random.Random(seed))
            committed = 0
            last_commit = None
            stall_credit = None
            for offset in range(1, cycles + 1):
                credit_before = stepped._credit
                stalls_before = stepped.stats.total_stall_cycles
                commit = stepped.step(offset, "other")
                if stepped.stats.total_stall_cycles != stalls_before:
                    # A replay stops on the stall cycle with its credit
                    # earned and nothing charged — the stepped prefix.
                    stall_credit = credit_before + stepped.ipc
                    break
                if commit:
                    committed += commit
                    last_commit = offset

            if stall_credit is not None:
                stalls += 1
                with pytest.raises(SimulationError, match="stall boundary"):
                    replayed.replay_steps(cycles)
                assert repr(replayed._credit) == repr(stall_credit), trial
            else:
                assert replayed.replay_steps(cycles) == (
                    committed, last_commit
                ), trial
                assert repr(replayed._credit) == repr(stepped._credit), trial
            assert replayed.iq_count == stepped.iq_count, trial
            assert replayed.stats.committed == stepped.stats.committed
            assert replayed.stats.base_cycles == stepped.stats.base_cycles
        assert stalls > 0, "trial mix never crossed a stall boundary"
