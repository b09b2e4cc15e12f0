"""Tests for the reusable simulation kernel (repro.engine).

Covers the clock, event-queue semantics (same-cycle rescheduling),
kernel progress/watchdog behaviour, and the ready/wake scheduler's
exact-equivalence contract against the cycle-by-cycle reference engine.
"""

import pytest

from repro.acmp import (
    AcmpSimulator,
    baseline_config,
    result_to_dict,
    simulate,
    worker_shared_config,
)
from repro.acmp.system import AcmpSystem
from repro.engine import NEVER, Clock, EventQueue, SimulationKernel
from repro.errors import DeadlockError, SimulationError
from repro.trace.records import (
    BasicBlockRecord,
    IpcRecord,
    SyncKind,
    SyncRecord,
)
from repro.trace.stream import ThreadTrace, TraceSet
from repro.trace.synthesis import synthesize_benchmark


class TestClock:
    def test_starts_at_zero_and_advances(self):
        clock = Clock()
        assert clock.now == 0
        assert clock.advance() == 1
        assert clock.now == 1

    def test_jump_forward(self):
        clock = Clock()
        clock.jump(100)
        assert clock.now == 100
        clock.jump(100)  # jumping to the current cycle is a no-op
        assert clock.now == 100

    def test_jump_backwards_rejected(self):
        clock = Clock(start=10)
        with pytest.raises(SimulationError):
            clock.jump(9)


class TestEventQueue:
    def test_fifo_within_a_cycle(self):
        events = EventQueue()
        order = []
        events.schedule(5, lambda: order.append("a"))
        events.schedule(5, lambda: order.append("b"))
        events.schedule(4, lambda: order.append("c"))
        assert events.run_due(5) == 3
        assert order == ["c", "a", "b"]

    def test_same_cycle_rescheduling_runs_in_same_drain(self):
        # A callback that schedules another event at the *current* cycle
        # must see it delivered within the same run_due call — the MSHR
        # retry path and chained fills depend on this.
        events = EventQueue()
        order = []

        def first():
            order.append("first")
            events.schedule(7, lambda: order.append("chained"))

        events.schedule(7, first)
        assert events.run_due(7) == 2
        assert order == ["first", "chained"]
        assert len(events) == 0

    def test_next_cycle_peek(self):
        events = EventQueue()
        assert events.next_cycle is None
        events.schedule(12, lambda: None)
        events.schedule(3, lambda: None)
        assert events.next_cycle == 3


class _CountdownComponent:
    """Commits one unit per cycle for `work` cycles, then goes to sleep."""

    def __init__(self, kernel: SimulationKernel, work: int) -> None:
        self.kernel = kernel
        self.work = work
        self.slept_from: int | None = None
        self.woken_at: list[int] = []
        self.slot = kernel.register(self.step, on_wake=self.on_wake)

    def step(self, now: int) -> int:
        progress = 0
        if self.work > 0:
            self.work -= 1
            progress = 1
        if self.work == 0 and self.kernel.cycle_skip:
            self.kernel.sleep(self.slot, NEVER)
            self.slept_from = now + 1
        return progress

    def on_wake(self, now: int) -> None:
        self.woken_at.append(now)


class TestKernel:
    def test_finish_condition_ends_run(self):
        kernel = SimulationKernel(cycle_skip=False)
        component = _CountdownComponent(kernel, work=5)
        kernel.set_finish_condition(lambda: component.work == 0)
        assert kernel.run(max_cycles=100) == 5

    def test_max_cycles_guard(self):
        kernel = SimulationKernel(cycle_skip=False)
        _CountdownComponent(kernel, work=1 << 30)
        with pytest.raises(SimulationError, match="max_cycles"):
            kernel.run(max_cycles=10)

    def test_empty_ready_set_jumps_to_next_event(self):
        kernel = SimulationKernel()
        component = _CountdownComponent(kernel, work=3)
        finished = []
        kernel.events.schedule(1000, lambda: finished.append(True))
        kernel.set_finish_condition(lambda: bool(finished))
        assert kernel.run(max_cycles=10_000) == 1001
        # Steps at 0..2 commit and the component sleeps right after its
        # last one (unlike the old global gate, no zero-progress cycle
        # is needed first); the clock jumps 3 -> 1000.
        assert kernel.stats.skips == 1
        assert kernel.stats.cycles_skipped == 1000 - 3
        assert kernel.stats.cycles_executed == 4
        assert component.slept_from == 3
        assert component.woken_at == []  # the event never wakes it

    def test_timer_wake_resumes_component(self):
        kernel = SimulationKernel()

        class Napper:
            """Commits at cycle 0, naps 99 cycles, commits again at 100."""

            def __init__(self) -> None:
                self.commit_cycles: list[int] = []
                self.woken_at: list[int] = []
                self.slot = kernel.register(self.step, on_wake=self.on_wake)

            def step(self, now: int) -> int:
                progress = 0
                if now in (0, 100):
                    self.commit_cycles.append(now)
                    progress = 1
                kernel.sleep(self.slot, 100 if now < 100 else NEVER)
                return progress

            def on_wake(self, now: int) -> None:
                self.woken_at.append(now)

        napper = Napper()
        kernel.set_finish_condition(lambda: len(napper.commit_cycles) == 2)
        assert kernel.run(max_cycles=10_000) == 101
        assert napper.woken_at == [100]
        assert napper.commit_cycles == [0, 100]
        assert kernel.stats.cycles_skipped > 0

    def test_explicit_wake_from_event_steps_same_cycle(self):
        kernel = SimulationKernel()
        component = _CountdownComponent(kernel, work=1)

        def refill():
            component.work = 2
            kernel.wake(component.slot)

        kernel.events.schedule(50, refill)
        kernel.set_finish_condition(
            lambda: component.woken_at != [] and component.work == 0
        )
        assert kernel.run(max_cycles=10_000) == 52
        # The event at 50 wakes the component before stepping, so it
        # commits at cycles 50 and 51 (no lost cycle).
        assert component.woken_at == [50]
        assert kernel.stats.wakes == 1

    def test_deadlock_fires_across_skips(self):
        # With nothing scheduled and every component asleep forever, the
        # jump must not overshoot the watchdog: the deadlock fires at
        # exactly the cycle the stepped engine would raise at.
        kernel = SimulationKernel(stall_limit=500)
        _CountdownComponent(kernel, work=2)
        with pytest.raises(DeadlockError, match="cycle 502"):
            kernel.run(max_cycles=1_000_000)
        # Last progress at cycle 1; watchdog fires at 1 + 500 + 1.
        assert kernel.stats.cycles_skipped > 0

    def test_component_without_sleep_support_stays_ready(self):
        class Bare:
            def step(self, now):
                return 0

        kernel = SimulationKernel(stall_limit=100)
        kernel.register(Bare().step)
        with pytest.raises(DeadlockError):
            kernel.run(max_cycles=1_000)
        assert kernel.stats.cycles_skipped == 0
        assert kernel.stats.component_steps == kernel.stats.cycles_executed


def _master_records(phases=1):
    records = [IpcRecord(1.0), BasicBlockRecord(0x100, 8)]
    for phase in range(phases):
        records += [
            SyncRecord(SyncKind.PARALLEL_START, phase),
            IpcRecord(2.0),
            BasicBlockRecord(0x1000, 8),
            SyncRecord(SyncKind.PARALLEL_END, phase),
        ]
    return records


def _worker_records(phases=1):
    records = []
    for phase in range(phases):
        records += [
            SyncRecord(SyncKind.PARALLEL_START, phase),
            IpcRecord(1.0),
            BasicBlockRecord(0x1000, 8),
            SyncRecord(SyncKind.PARALLEL_END, phase),
        ]
    return records


class TestCycleSkipEquivalence:
    """Skip vs no-skip must produce bit-identical SimulationResults."""

    BENCHMARKS = ("CG", "UA", "CoMD")

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_baseline_equivalence(self, bench):
        traces = synthesize_benchmark(bench, thread_count=9, scale=0.05, seed=0)
        config = baseline_config()
        fast = simulate(config, traces, cycle_skip=True)
        reference = simulate(config, traces, cycle_skip=False)
        assert result_to_dict(fast) == result_to_dict(reference)

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_shared_equivalence(self, bench):
        traces = synthesize_benchmark(bench, thread_count=9, scale=0.05, seed=1)
        config = worker_shared_config()
        fast = simulate(config, traces, cycle_skip=True)
        reference = simulate(config, traces, cycle_skip=False)
        assert result_to_dict(fast) == result_to_dict(reference)

    def test_skip_path_actually_engages(self):
        traces = synthesize_benchmark("CoMD", thread_count=9, scale=0.05, seed=0)
        system = AcmpSystem(baseline_config(), traces)
        system.warm_instruction_l2s()
        simulator = AcmpSimulator(system, cycle_skip=True)
        simulator.run()
        stats = simulator.kernel.stats
        assert stats.skips > 0
        assert stats.cycles_skipped > 0
        assert stats.total_cycles == simulator.cycle

    def test_disabled_skip_never_jumps(self):
        traces = synthesize_benchmark("CG", thread_count=9, scale=0.02, seed=0)
        system = AcmpSystem(baseline_config(), traces)
        system.warm_instruction_l2s()
        simulator = AcmpSimulator(system, cycle_skip=False)
        simulator.run()
        assert simulator.kernel.stats.cycles_skipped == 0


class TestCoreUnit:
    @pytest.mark.parametrize(
        "config",
        [
            baseline_config(worker_count=4, iq_capacity=256),
            worker_shared_config(cores_per_cache=4, itlb_enabled=True),
            worker_shared_config(arbitration="icount"),
        ],
        ids=["private-big-iq", "shared-itlb", "shared-icount"],
    )
    def test_front_phase_never_steps_while_commit_phase_sleeps(self, config):
        """Only the commit phase plans a unit's sleeps, and its windows
        assume a sleeping front-end, so no front phase may ever step
        behind a sleeping commit phase."""
        traces = synthesize_benchmark(
            "UA", thread_count=config.core_count, scale=0.05, seed=2
        )
        system = AcmpSystem(config, traces)
        system.warm_instruction_l2s()
        simulator = AcmpSimulator(system)
        kernel = simulator.kernel
        fronts = []
        for unit in system.core_units:
            front_step = kernel._steps[unit.front_slot]

            def checked(now, unit=unit, front_step=front_step):
                assert not unit.commit_asleep, f"core {unit.core.core_id}"
                fronts.append(now)
                return front_step(now)

            kernel._steps[unit.front_slot] = checked
        simulator.run()
        assert fronts and any(
            unit.commit_cycles_batched > 0 for unit in system.core_units
        )


class TestDeadlockAcrossSkips:
    def test_sync_deadlock_detected_with_skip_enabled(self):
        # Worker 2 waits for a phase the master never starts: every core
        # ends up blocked with an empty event queue. The fast path takes
        # one large jump to the watchdog cycle and must still raise.
        bad_worker = [
            SyncRecord(SyncKind.PARALLEL_START, 5),
            IpcRecord(1.0),
            BasicBlockRecord(0x1000, 8),
            SyncRecord(SyncKind.PARALLEL_END, 5),
        ]
        traces = TraceSet(
            "phantom",
            [
                ThreadTrace(0, _master_records()),
                ThreadTrace(1, _worker_records()),
                ThreadTrace(2, bad_worker),
            ],
        )
        config = baseline_config(worker_count=2)
        with pytest.raises(DeadlockError) as fast_error:
            simulate(config, traces, cycle_skip=True)
        with pytest.raises(DeadlockError) as reference_error:
            simulate(config, traces, cycle_skip=False)
        # Identical diagnosis, including the firing cycle.
        assert str(fast_error.value) == str(reference_error.value)
        assert "phase 5" in str(fast_error.value)
