"""The cycle-level simulation driver, machine-model agnostic.

Per-cycle order of operations (encoded as per-core kernel components,
see :mod:`repro.machine.components`):

1. scheduled completions land (line-buffer fills, cache refills);
2. every runnable core's front-end steps (FTQ fill, issue, extract);
3. the shared I-interconnects arbitrate and process grants;
4. every core's back-end attempts to commit, charging stall cycles to
   the front-end's attribution when it starves;
5. blocked cores accumulate synchronisation wait time.

The run terminates when every thread has consumed its trace and drained
its pipeline; the cycle count at that point is the benchmark's execution
time for the configured design point.

The main loop lives in :class:`repro.engine.SimulationKernel`, an
event-driven ready/wake scheduler: components that block (a front-end
waiting on a fill, a back-end with an empty queue, a core blocked on
synchronisation, an idle interconnect) leave the run list and arm a
wake — an event or a cycle horizon — so each cycle only steps the
components with work, and when nothing is ready at all the clock jumps
straight to the next wake-up. Elided cycles are batch-accounted into
the same stall buckets a stepped run would produce. Results are
bit-identical either way; pass ``cycle_skip=False`` to force the
cycle-by-cycle reference path that steps every component every cycle.
"""

from __future__ import annotations

from dataclasses import fields as _dataclass_fields

from repro.engine import SimulationKernel
from repro.machine.config import BaseMachineConfig
from repro.machine.results import SimulationResult
from repro.machine.system import System
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import metrics_registry as _active_metrics
from repro.trace.stream import TraceSet

#: Cycles without any committed instruction before declaring a deadlock.
_STALL_LIMIT = 200_000


class SystemSimulator:
    """Runs one :class:`System` to completion on a simulation kernel."""

    def __init__(self, system: System, *, cycle_skip: bool = True) -> None:
        self.system = system
        self.kernel = SimulationKernel(
            events=system.events,
            stall_limit=_STALL_LIMIT,
            cycle_skip=cycle_skip,
        )
        system.register_components(self.kernel)
        self.kernel.set_finish_condition(system.all_finished)
        self.kernel.set_describe(self._describe)
        self.kernel.set_deadlock_detail(self._deadlock_detail)
        # Observability: the construction-time grab. None when recording
        # is disabled, so the run path costs one None check.
        self._metrics = _active_metrics()

    @property
    def cycle(self) -> int:
        """Current simulation cycle (the kernel clock's reading)."""
        return self.kernel.clock.now

    def run(self, max_cycles: int = 500_000_000) -> SimulationResult:
        """Simulate until all threads finish; return collected results.

        Raises:
            DeadlockError: when no thread commits for a long window while
                unfinished threads remain (protocol violation or bug).
        """
        try:
            cycles = self.kernel.run(max_cycles=max_cycles)
        finally:
            self._aggregate_stats()
        result = self.system.collect_results(cycles)
        if self._metrics is not None:
            result.metrics = self.run_metrics().to_payload()
        tracer = self.kernel.tracer
        if tracer is not None:
            # Lay successive runs end to end on the simulated-clock
            # track instead of stacking them all at cycle 0.
            tracer.cycle_offset = self.kernel._ts_base + cycles + 1
        return result

    def _aggregate_stats(self) -> None:
        """Fold the components' batched-accounting counters into the
        kernel's flat :class:`~repro.engine.kernel.KernelStats`."""
        self.kernel.stats.interconnect_busy_batched += sum(
            component.busy_steps_batched
            for component in self.system.interconnect_components
        )
        self.kernel.stats.commit_cycles_batched += sum(
            state.commit_cycles_batched
            for state in self.system.schedule_states
        )
        self.kernel.stats.redirect_cycles_batched += sum(
            state.redirect_cycles_batched
            for state in self.system.schedule_states
        )

    def run_metrics(self) -> MetricsRegistry:
        """The run's :class:`KernelStats` as labelled ``kernel.*``
        counters (the structured successor of the flat stat bag; every
        field is absorbed automatically)."""
        registry = MetricsRegistry()
        labels = {
            "machine": self.system.machine_name,
            "engine": "skip" if self.kernel.cycle_skip else "step",
        }
        stats = self.kernel.stats
        for field in _dataclass_fields(stats):
            registry.counter("kernel." + field.name, **labels).inc(
                getattr(stats, field.name)
            )
        return registry

    # -- error context -----------------------------------------------------

    def _describe(self) -> str:
        system = self.system
        return (
            f"benchmark {system.traces.benchmark!r}, machine "
            f"{system.machine_name}, config {system.config.label()}"
        )

    def _deadlock_detail(self, now: int) -> str:
        system = self.system
        states = {
            core.core_id: core.context.state.value for core in system.cores
        }
        return (
            f"core states {states}; runtime: "
            f"{system.runtime.describe_blockage()}"
        )


def simulate(
    config: BaseMachineConfig,
    traces: TraceSet,
    max_cycles: int = 500_000_000,
    warm_l2: bool = True,
    cycle_skip: bool = True,
) -> SimulationResult:
    """Build and run one design point over one trace set.

    The machine model is resolved from the configuration's type via the
    model registry (:func:`repro.machine.model.model_for_config`), so
    callers can simulate any registered machine with one entry point.

    Args:
        warm_l2: pre-fill the instruction-side L2s with the code footprint
            (see :meth:`System.warm_instruction_l2s`); on by default
            because the paper's full-length runs operate with code-resident
            L2s.
        cycle_skip: enable the kernel's cycle-skipping fast path
            (bit-identical results; off only for engine cross-checks).
    """
    from repro.machine.model import model_for_config

    model = model_for_config(config)
    system = model.build_system(config, traces)
    if warm_l2:
        system.warm_instruction_l2s()
    return SystemSimulator(system, cycle_skip=cycle_skip).run(
        max_cycles=max_cycles
    )
