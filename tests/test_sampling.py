"""Tests for repro.sampling: plans, slicing, warm state, extrapolation."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acmp import baseline_config, worker_shared_config
from repro.campaign import ResultStore, RunSpec
from repro.errors import ConfigurationError
from repro.machine.model import get_model
from repro.machine.simulator import simulate
from repro.sampling import (
    IntervalKind,
    SamplingPlan,
    interval_traceset,
    resolve_plan,
    simulate_sampled,
    slice_traces,
)
from repro.sampling.checkpoints import decode_state, encode_state
from repro.scmp import banked_config
from repro.trace.records import SyncKind, SyncRecord
from repro.trace.synthesis import synthesize_benchmark

#: A plan sized for the small synthetic traces the tests use.
TINY_PLAN = SamplingPlan(
    detail_instructions=2_000,
    skip_instructions=6_000,
    warmup_instructions=6_000,
)


class TestSamplingPlan:
    def test_spec_round_trip(self):
        plan = SamplingPlan(2000, 14000, 3000, seed=7)
        assert SamplingPlan.from_spec(plan.spec()) == plan

    @given(
        detail=st.integers(min_value=1, max_value=10**7),
        skip=st.integers(min_value=0, max_value=10**7),
        warmup_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_spec_round_trip_property(self, detail, skip, warmup_fraction, seed):
        plan = SamplingPlan(detail, skip, int(skip * warmup_fraction), seed)
        assert SamplingPlan.from_spec(plan.spec()) == plan

    def test_presets_resolve(self):
        assert resolve_plan("") is None
        assert resolve_plan("none") is None
        fast = resolve_plan("fast")
        precise = resolve_plan("precise")
        assert 0 < fast.coverage < precise.coverage < 1
        # A raw spec resolves too.
        assert resolve_plan(fast.spec()) == fast

    def test_exact_plan(self):
        plan = SamplingPlan(1000, 0, 0)
        assert plan.exact and plan.coverage == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(detail_instructions=0, skip_instructions=0, warmup_instructions=0),
            dict(detail_instructions=10, skip_instructions=-1, warmup_instructions=0),
            dict(detail_instructions=10, skip_instructions=5, warmup_instructions=6),
            dict(detail_instructions=10, skip_instructions=5, warmup_instructions=0, seed=-1),
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SamplingPlan(**kwargs)

    @pytest.mark.parametrize("text", ["bogus", "d10:s5", "d10:sx:w1", "d1:d2:s0:w0"])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ConfigurationError):
            resolve_plan(text)

    def test_seed_rotates_phase(self):
        offsets = {
            SamplingPlan(1000, 7000, 7000, seed=s).phase_offset
            for s in range(5)
        }
        assert len(offsets) > 1


def _critical_depth_ok(records):
    """True when WAIT/SIGNAL are balanced and never dip negative."""
    depth = 0
    for record in records:
        if isinstance(record, SyncRecord):
            if record.kind is SyncKind.WAIT:
                depth += 1
            elif record.kind is SyncKind.SIGNAL:
                depth -= 1
                if depth < 0:
                    return False
    return depth == 0


class TestSlicing:
    #: CG: plain fork-join; botsspar: critical sections (WAIT/SIGNAL).
    BENCHMARKS = ("CG", "botsspar")

    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("seed", (0, 3))
    def test_slices_tile_the_trace(self, bench, seed):
        traces = synthesize_benchmark(
            bench, thread_count=5, scale=0.3, seed=seed
        )
        intervals = slice_traces(traces, TINY_PLAN)
        assert len(intervals) > 1
        for thread_id, trace in enumerate(traces.threads):
            position = 0
            for interval in intervals:
                start, end = interval.spans[thread_id]
                assert start == position
                position = end
            assert position == len(trace.records)
        assert (
            sum(interval.instructions for interval in intervals)
            == traces.instruction_count
        )

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_never_splits_sync_regions(self, bench):
        traces = synthesize_benchmark(bench, thread_count=5, scale=0.3)
        intervals = slice_traces(traces, TINY_PLAN)
        # Critical sections: every interval's span holds balanced
        # WAIT/SIGNAL pairs on every thread.
        for interval in intervals:
            for thread_id, (start, end) in enumerate(interval.spans):
                records = traces.threads[thread_id].records[start:end]
                assert _critical_depth_ok(records), (
                    f"interval {interval.index} splits a critical "
                    f"section on thread {thread_id}"
                )
        # Joins: all arrivals of one PARALLEL_END land in one interval;
        # forks: the master's announcement never lands after a worker's
        # start of the same phase.
        def interval_of(kind, thread_id, object_id):
            for interval in intervals:
                start, end = interval.spans[thread_id]
                for record in traces.threads[thread_id].records[start:end]:
                    if (
                        isinstance(record, SyncRecord)
                        and record.kind is kind
                        and record.object_id == object_id
                    ):
                        return interval.index
            return None

        phases = {
            record.object_id
            for record in traces.threads[0].records
            if isinstance(record, SyncRecord)
            and record.kind is SyncKind.PARALLEL_END
        }
        for phase in phases:
            ends = {
                interval_of(SyncKind.PARALLEL_END, t, phase)
                for t in range(traces.thread_count)
            }
            assert len(ends) == 1, f"join {phase} straddles intervals {ends}"
            master_start = interval_of(SyncKind.PARALLEL_START, 0, phase)
            for t in range(1, traces.thread_count):
                worker_start = interval_of(SyncKind.PARALLEL_START, t, phase)
                assert master_start <= worker_start

    def test_slicing_is_deterministic(self):
        traces = synthesize_benchmark("UA", thread_count=5, scale=0.3)
        assert slice_traces(traces, TINY_PLAN) == slice_traces(
            traces, TINY_PLAN
        )

    def test_slicing_is_memoised_per_trace_set_and_plan(self):
        """A trace set slices once per plan: the memo's answer equals a
        fresh slice of equal records, repeats of a plan get the same
        tuple, and another plan gets its own entry."""
        traces = synthesize_benchmark("UA", thread_count=5, scale=0.3)
        intervals = slice_traces(traces, TINY_PLAN)
        assert type(intervals) is tuple
        fresh = synthesize_benchmark("UA", thread_count=5, scale=0.3)
        assert intervals == slice_traces(fresh, TINY_PLAN)
        assert slice_traces(traces, TINY_PLAN) is intervals
        rotated = SamplingPlan(2_000, 6_000, 6_000, seed=1)
        other = slice_traces(traces, rotated)
        assert other != intervals
        assert slice_traces(traces, rotated) is other
        assert slice_traces(traces, TINY_PLAN) is intervals

    def test_serial_windows_are_exhaustive_detail(self):
        traces = synthesize_benchmark("CoMD", thread_count=5, scale=0.3)
        intervals = slice_traces(traces, TINY_PLAN)
        exhaustive = [i for i in intervals if i.exhaustive]
        assert exhaustive, "CoMD's serial stretches must be measured"
        from repro.trace.records import BasicBlockRecord

        for interval in exhaustive:
            assert interval.kind is IntervalKind.DETAIL
            # Exhaustive intervals are the serial stratum: worker
            # threads contribute no instructions to them.
            for thread_id in range(1, traces.thread_count):
                start, end = interval.spans[thread_id]
                assert not any(
                    isinstance(record, BasicBlockRecord)
                    for record in traces.threads[thread_id].records[start:end]
                )

    def test_exact_plan_yields_single_interval(self):
        traces = synthesize_benchmark("CG", thread_count=3, scale=0.1)
        intervals = slice_traces(traces, SamplingPlan(1000, 0, 0))
        assert len(intervals) == 1
        assert intervals[0].kind is IntervalKind.DETAIL
        assert intervals[0].exhaustive

    def test_materialised_interval_reopens_phases(self):
        traces = synthesize_benchmark("UA", thread_count=3, scale=0.3)
        intervals = slice_traces(traces, TINY_PLAN)
        mid_phase = [
            interval
            for interval in intervals
            if any(interval.entry_phases[t] for t in range(3))
        ]
        assert mid_phase, "expected at least one mid-phase interval"
        subset = interval_traceset(traces, mid_phase[0])
        for thread_id, phases in enumerate(mid_phase[0].entry_phases):
            records = subset.threads[thread_id].records
            reopened = [
                record.object_id
                for record in records[: len(phases)]
            ]
            assert reopened == list(phases)


class TestSamplingPlanInStoreKey:
    def test_spec_normalises_to_canonical_plan(self):
        spec = RunSpec(
            benchmark="CG", config=baseline_config(), sampling="fast"
        )
        plan = resolve_plan("fast")
        assert spec.sampling == plan.spec()
        assert SamplingPlan.from_spec(spec.sampling) == plan

    def test_sampled_and_full_entries_are_distinct(self, tmp_path):
        store = ResultStore(tmp_path)
        full = RunSpec(
            benchmark="CG", config=baseline_config(worker_count=2), scale=0.02
        )
        sampled = RunSpec(
            benchmark="CG",
            config=baseline_config(worker_count=2),
            scale=0.02,
            sampling="fast",
        )
        assert store.path_for(full) != store.path_for(sampled)
        result = simulate(
            full.config,
            synthesize_benchmark("CG", thread_count=3, scale=0.02),
        )
        store.put(full, result)
        assert store.get(sampled) is None  # never served across flavors

    def test_flavor_mismatch_inside_entry_rejected(self, tmp_path):
        import shutil

        from repro.errors import SimulationError

        store = ResultStore(tmp_path)
        full = RunSpec(
            benchmark="CG", config=baseline_config(worker_count=2), scale=0.02
        )
        sampled = RunSpec(
            benchmark="CG",
            config=baseline_config(worker_count=2),
            scale=0.02,
            sampling="fast",
        )
        result = simulate(
            full.config,
            synthesize_benchmark("CG", thread_count=3, scale=0.02),
        )
        path = store.put(full, result)
        target = store.path_for(sampled)
        shutil.copy(path, target)  # a full entry smuggled onto the path
        with pytest.raises(SimulationError, match="sampling flavor"):
            store.get(sampled)


def _warmed_system(model_name, config, bench="CG", scale=0.1):
    model = get_model(model_name)
    traces = synthesize_benchmark(
        bench, thread_count=config.core_count, scale=scale
    )
    system = model.build_system(config, traces)
    system.warm_instruction_l2s()
    from repro.machine.simulator import SystemSimulator

    SystemSimulator(system).run()
    return model, traces, system


class TestWarmState:
    @pytest.mark.parametrize(
        "machine,config",
        [
            ("acmp", worker_shared_config(itlb_enabled=True, shared_itlb=True)),
            ("acmp", baseline_config()),
            ("scmp", banked_config()),
        ],
        ids=["acmp-shared-itlb", "acmp-baseline", "scmp-banked"],
    )
    def test_snapshot_round_trips_through_json(self, machine, config):
        model, traces, system = _warmed_system(machine, config)
        captured = system.capture_warm_state()
        rebuilt = decode_state(
            json.loads(json.dumps(encode_state(captured)))  # full JSON trip
        )
        fresh = model.build_system(config, traces)
        fresh.restore_warm_state(rebuilt)
        assert fresh.capture_warm_state() == captured
        for core in fresh.cores:  # adopted as decoded, not converted
            assert type(core.frontend.predictor.direction._counters) is (
                bytearray
            )

    @pytest.mark.parametrize("policy", ["lru", "plru", "fifo"])
    def test_copy_owns_every_table(self, policy):
        """``copy()`` equals its source, and no table of the copy is the
        source's: mutating each one in turn leaves the source equal to
        a deep copy taken before."""
        config = worker_shared_config(
            icache_policy=policy, itlb_enabled=True
        )
        _, _, system = _warmed_system("acmp", config)
        state = system.capture_warm_state()
        reference = copy.deepcopy(state)
        clone = state.copy()
        assert clone == reference

        def bump(table, index=0):
            table[index] ^= 1

        def filled(rows):
            """The first row whose first cell holds a value (a sparse
            table's rows are its values)."""
            if isinstance(rows, dict):
                rows = rows.values()
            return next(row for row in rows if row and row[0] is not None)

        l1, l2 = clone.groups[0]["icache"], clone.groups[0]["l2"]
        predictor, itlb = clone.predictors[0], clone.itlbs[0]
        mutations = {
            "L1 tag row": lambda: bump(filled(l1["tags"])),
            "L2 tag row": lambda: bump(filled(l2["tags"])),
            f"L1 {policy} state": lambda: bump(
                l1["policy"] if policy == "fifo" else filled(l1["policy"])
            ),
            "L2 LRU row": lambda: bump(filled(l2["policy"])),
            "gshare byte": lambda: bump(predictor["direction"]["counters"]),
            "L1 seen lines": lambda: l1["seen"].add(-64),
            "L2 seen lines": lambda: l2["seen"].add(-64),
            "line buffers": lambda: bump(
                clone.cores[0]["line_buffers"]["entries"][0]
            ),
            "iTLB pages": lambda: bump(itlb["pages"][0], 1),
            "iTLB seen pages": lambda: itlb["seen"].add(-1),
        }
        for structure in ("loop", "btb"):
            for name, column in predictor[structure].items():
                mutations[f"{structure} {name}"] = (
                    lambda column=column: bump(column)
                )
        for name, mutate in mutations.items():
            mutate()
            assert state == reference, f"copy shares its {name}"
        assert clone != reference

    def test_restore_rejects_other_machine(self):
        acmp_model, traces, system = _warmed_system("acmp", baseline_config())
        state = system.capture_warm_state()
        scmp_traces = synthesize_benchmark("CG", thread_count=8, scale=0.1)
        scmp_system = get_model("scmp").build_system(
            banked_config(), scmp_traces
        )
        with pytest.raises(ConfigurationError, match="machine"):
            scmp_system.restore_warm_state(state)

    def test_restore_rejects_other_design_point(self):
        model, traces, system = _warmed_system("acmp", baseline_config())
        state = system.capture_warm_state()
        other = model.build_system(worker_shared_config(), traces)
        with pytest.raises(ConfigurationError, match="design point"):
            other.restore_warm_state(state)

    def test_warm_state_transfers_cache_contents(self):
        model, traces, system = _warmed_system("acmp", baseline_config())
        state = system.capture_warm_state()
        fresh = model.build_system(baseline_config(), traces)
        fresh.restore_warm_state(state)
        for warmed, restored in zip(
            system.group_hardware, fresh.group_hardware
        ):
            assert (
                warmed.cache.resident_lines()
                == restored.cache.resident_lines()
            )
            assert (
                warmed.hierarchy.l2.resident_lines()
                == restored.hierarchy.l2.resident_lines()
            )


class TestSampledSimulation:
    def test_fast_mode_error_bound_on_grid_workloads(self):
        """Sampled estimates stay within a stated bound of full runs on
        the equivalence-grid workloads (the bench probe enforces the
        tighter 2 % bound on reported *speedups* at full scale)."""
        bound = 0.10
        for bench in ("CG", "UA"):
            traces = synthesize_benchmark(bench, thread_count=9, scale=0.3)
            config = baseline_config()
            full = simulate(config, traces)
            sampled = simulate_sampled(config, traces, TINY_PLAN)
            error = abs(sampled.cycles - full.cycles) / full.cycles
            assert error <= bound, f"{bench}: {error:.1%} > {bound:.0%}"
            assert not sampled.sampling["exact"]
            assert sampled.sampling["intervals"]["detail"] >= 2

    def test_payload_shape(self):
        traces = synthesize_benchmark("CG", thread_count=9, scale=0.3)
        sampled = simulate_sampled(baseline_config(), traces, TINY_PLAN)
        info = sampled.sampling
        assert SamplingPlan.from_spec(info["plan"]) == TINY_PLAN
        assert 0 < info["coverage"] < 1
        assert info["total_instructions"] == traces.instruction_count
        assert 0 < info["measured_instructions"] < traces.instruction_count
        assert set(info["errors"]) == {"cycles", "icache_mpki", "branch_mpki"}
        # Per-stratum extrapolation factors and the measured startup
        # transient ride along for non-exact runs.
        assert info["factors"]["parallel"] > 1
        assert info["transient_cycles"] >= 0

    def test_long_serial_stretches_are_sampled_per_stratum(self):
        """CoMD's master-only stretches span many sampling periods, so
        the serial stratum gets the systematic schedule too instead of
        being exhaustively measured (the Amdahl floor PR 5 left)."""
        from repro.trace.records import BasicBlockRecord

        traces = synthesize_benchmark("CoMD", thread_count=5, scale=0.3)
        plan = SamplingPlan(500, 1_500, 1_500)
        intervals = slice_traces(traces, plan)
        sampled_serial = [
            i for i in intervals
            if i.stratum == "serial" and not i.exhaustive
        ]
        assert sampled_serial, "long serial stretches must be sampled"
        kinds = {interval.kind for interval in sampled_serial}
        assert IntervalKind.DETAIL in kinds and IntervalKind.WARM in kinds
        for interval in sampled_serial:
            # Serial stratum means master-only: worker threads commit
            # nothing inside these intervals.
            for thread_id in range(1, traces.thread_count):
                start, end = interval.spans[thread_id]
                assert not any(
                    isinstance(record, BasicBlockRecord)
                    for record in traces.threads[thread_id].records[start:end]
                )

        sampled = simulate_sampled(baseline_config(worker_count=4), traces, plan)
        info = sampled.sampling
        assert set(info["factors"]) == {"parallel", "serial"}
        assert info["factors"]["serial"] > 1

    def test_tiny_trace_falls_back_to_exact(self):
        traces = synthesize_benchmark("CG", thread_count=3, scale=0.02)
        plan = SamplingPlan(10**6, 7 * 10**6, 7 * 10**6)
        full = simulate(baseline_config(worker_count=2), traces)
        sampled = simulate_sampled(
            baseline_config(worker_count=2), traces, plan
        )
        assert sampled.sampling["exact"]
        assert sampled.sampling["coverage"] == 1.0
        assert sampled.cycles == full.cycles

    def test_plan_none_is_plain_simulation(self):
        traces = synthesize_benchmark("CG", thread_count=3, scale=0.02)
        result = simulate_sampled(
            baseline_config(worker_count=2), traces, None
        )
        assert result.sampling is None

    def test_sampled_result_serialization_round_trip(self):
        from repro.machine.serialization import result_from_dict, result_to_dict

        traces = synthesize_benchmark("CG", thread_count=9, scale=0.3)
        sampled = simulate_sampled(baseline_config(), traces, TINY_PLAN)
        payload = result_to_dict(sampled)
        assert "sampling" in payload
        rebuilt = result_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.sampling == sampled.sampling
        assert rebuilt.cycles == sampled.cycles

    def test_sampled_runs_are_deterministic(self):
        traces = synthesize_benchmark("UA", thread_count=9, scale=0.3)
        config = worker_shared_config()
        first = simulate_sampled(config, traces, TINY_PLAN)
        second = simulate_sampled(config, traces, TINY_PLAN)
        assert first.cycles == second.cycles
        assert first.sampling == second.sampling


class TestWarmStateCarriesMissClassifier:
    def test_compulsory_classification_survives_restore(self):
        """Lines ever resident are warm state: a restored cache must not
        re-classify capacity misses of old lines as compulsory."""
        from repro.cache.set_assoc import SetAssociativeCache

        cache = SetAssociativeCache(256, 2, 64)
        for line in range(0, 64 * 64, 64):  # far beyond capacity
            cache.access(line)
        assert cache.stats.compulsory_misses == cache.stats.misses
        fresh = SetAssociativeCache(256, 2, 64)
        fresh.load_warm_state(cache.warm_state())
        fresh.access(0)  # line 0 was seen (and evicted) long ago
        assert fresh.stats.misses == 1
        assert fresh.stats.compulsory_misses == 0

    def test_sampled_compulsory_share_tracks_full_run(self):
        """End to end: the Fig. 11 compulsory/capacity split must not
        collapse to all-compulsory under sampling."""
        config = worker_shared_config(icache_kb=16)
        traces = synthesize_benchmark("botsalgn", thread_count=9, scale=0.5)
        full = simulate(config, traces)
        sampled = simulate_sampled(config, traces, TINY_PLAN)

        def compulsory_share(result):
            shared = [g for g in result.cache_groups if g.shared]
            misses = sum(g.misses for g in shared)
            return sum(g.compulsory_misses for g in shared) / misses

        assert compulsory_share(full) < 0.95  # capacity pressure exists
        assert (
            abs(compulsory_share(sampled) - compulsory_share(full)) < 0.15
        )


class TestScmpAllShared:
    def test_core_count_overrides_keep_full_sharing(self):
        model = get_model("scmp")
        for count in (4, 8, 16):
            config = model.all_shared_config(core_count=count)
            assert config.core_count_total == count
            assert config.cores_per_cache == count
        config = model.all_shared_config(core_count_total=4)
        assert config.cores_per_cache == config.core_count_total == 4
